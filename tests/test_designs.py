import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from looise.designs import (
    _SOBOL_V,
    SOBOL_BITS,
    SOBOL_MAX_DIM,
    Design,
    IntegrationMeasure,
    clamp_theta,
    design_from_csv,
    design_to_csv,
    greedy_packing,
    min_pairwise_distance,
    nn_distance,
    packing_radius,
    regular_grid,
    sobol_points,
    theta_from_coverage,
    theta_loo,
    theta_packing_rule,
    uniform_measure,
)
from looise.errors import (
    DegenerateData,
    EmptyCandidates,
    KTooLarge,
    NoRoot,
    SinglePoint,
    TooManyPoints,
    UnsupportedDimension,
)
from looise.kernels import KernelSpec, distances
from looise.testbed import sample_gp


def brute_sobol(i: int, dims: int) -> list[float]:
    """Bit-by-bit Sobol' point: per-index Gray-code XOR of direction integers.

    Direction numbers derived by hand from the primitive polynomials of
    the first three dimensions; independent of both scipy and the
    package implementation.
    """
    ms = {0: None, 1: None, 2: None}
    m1 = [1] * SOBOL_BITS
    m2 = [1]
    for k in range(1, SOBOL_BITS):
        m2.append((2 * m2[k - 1]) ^ m2[k - 1])
    m3 = [1, 3]
    for k in range(2, SOBOL_BITS):
        m3.append((2 * m3[k - 1]) ^ (4 * m3[k - 2]) ^ m3[k - 2])
    ms = [m1, m2, m3]
    out = []
    g = i ^ (i >> 1)
    for d in range(dims):
        v = [ms[d][k] << (SOBOL_BITS - 1 - k) for k in range(SOBOL_BITS)]
        acc = 0
        for k in range(SOBOL_BITS):
            if (g >> k) & 1:
                acc ^= v[k]
        out.append(acc / 2.0**SOBOL_BITS)
    return out


def _witness_covering_radius(cand: np.ndarray, n: int) -> float:
    """Pure greedy on candidates; returns the max-min distance r_n after
    n selections. The n+1 selected candidates are pairwise >= r_n apart,
    so no n-point design can cover the candidates closer than r_n / 2."""
    center = np.full(cand.shape[1], 0.5)
    first = int(np.argmin(distances(center[None], cand)[0]))
    dmin = distances(cand[first][None], cand)[0]
    r_last = 0.0
    for _ in range(1, n + 1):
        star = int(np.argmax(dmin))
        r_last = float(dmin[star])
        dmin = np.minimum(dmin, distances(cand[star][None], cand)[0])
    return r_last


def packing_covering_report(design: Design, candidates) -> dict:
    """Exact PR/CR of a design against a candidate set, plus certified
    lower bounds on its packing and covering efficiencies.

    Packing: every n-subset of candidates has two points within one
    covering ball of the design's first n-1 points, so the optimal
    packing radius is at most CR(X_{n-1}) and
    PR(X_n) / CR(X_{n-1}) lower-bounds the efficiency. For designs from
    `greedy_packing` this bound is at least (1-a)/2 by construction.
    Covering: a pure-greedy witness run supplies n+1 candidates pairwise
    >= r_n apart, so the optimal covering distance is >= r_n / 2.
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    pr = packing_radius(design)
    cr = nn_distance(cand, design, k=1)
    prefix_cr = nn_distance(cand, design.points[: design.n - 1], k=1)
    r_n = _witness_covering_radius(cand, design.n)
    return {
        "packing_radius": pr,
        "covering_distance": cr,
        "packing_efficiency_lb": pr / prefix_cr if prefix_cr > 0 else math.inf,
        "covering_efficiency_lb": (0.5 * r_n / cr) if cr > 0 else math.inf,
    }


def test_sobol_matches_bitwise_oracle():
    got = sobol_points(3, 64)
    expected = np.array([brute_sobol(i, 3) for i in range(64)])
    assert np.array_equal(got, expected)


@pytest.mark.filterwarnings("ignore:The balance properties")  # qmc at N not a power of two
@pytest.mark.parametrize("d", range(1, SOBOL_MAX_DIM + 1))
def test_sobol_matches_scipy_qmc(d):
    from scipy.stats import qmc

    for N in (1, 2, 3, 5, 7, 100, 1000, 4096, 4097, 2**15):
        expected = qmc.Sobol(d, scramble=False, bits=SOBOL_BITS).random(N)
        assert sobol_points(d, N).tobytes() == expected.tobytes(), N


def test_sobol_direction_integers_match_scipy_qmc():
    from scipy.stats import qmc

    assert np.array_equal(_SOBOL_V, qmc.Sobol(SOBOL_MAX_DIM, scramble=False, bits=SOBOL_BITS)._sv)


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    # a fresh interpreter: this one may hold them already
    probe = ("import sys, looise.cli, looise.reproduce, looise.selftest; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_sobol_scramble_deterministic_and_invertible():
    a = sobol_points(2, 32, scramble_seed=42)
    b = sobol_points(2, 32, scramble_seed=42)
    assert np.array_equal(a, b)
    c = sobol_points(2, 32, scramble_seed=43)
    assert not np.array_equal(a, c)
    # digital shift: XOR-ing the shift back recovers the plain sequence
    plain = sobol_points(2, 32)
    shift = (np.round(a[0] * 2.0**SOBOL_BITS)).astype(np.uint64)  # first plain point is 0
    ints = np.round(a * 2.0**SOBOL_BITS).astype(np.uint64)
    assert np.array_equal((ints ^ shift[None, :]).astype(float) / 2.0**SOBOL_BITS, plain)


def test_sobol_dimension_limit():
    with pytest.raises(UnsupportedDimension):
        sobol_points(22, 4)
    sobol_points(21, 4)
    with pytest.raises(ValueError):  # past the 2^30 points of 30-bit integers
        sobol_points(2, 2**SOBOL_BITS + 1)


def test_regular_grid_10x10():
    g = regular_grid(2, 10)
    assert g.n == 100
    assert [0.0, 0.0] in g.points.tolist() and [1.0, 1.0] in g.points.tolist()
    assert np.isclose(min_pairwise_distance(g.points), 1.0 / 9.0)


def test_regular_grid_1d():
    g = regular_grid(1, 2)
    assert np.array_equal(np.sort(g.points.ravel()), [0.0, 1.0])


def test_design_rejects_coincident_points():
    with pytest.raises(ValueError, match="distinct"):
        Design(points=[[0.3], [0.3 + 1e-16]])
    with pytest.raises(ValueError, match="distinct"):
        Design(points=[[0.1, 0.2], [0.5, 0.5], [0.1, 0.2]])
    assert Design(points=[[0.0], [1e-13]]).n == 2


@pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
def test_design_rejects_coordinates_outside_the_cube(bad):
    with pytest.raises(ValueError, match="must lie in"):
        Design(points=[[0.5, 0.5], [0.25, bad]])


def test_measure_weights_validation():
    pts = np.array([[0.1], [0.9]])
    m = uniform_measure(pts)
    assert np.allclose(m.weights, 0.5)
    with pytest.raises(ValueError):
        IntegrationMeasure(points=pts, weights=np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        IntegrationMeasure(points=pts, weights=np.array([1.5, -0.5]))


def test_greedy_packing_center_start():
    d = greedy_packing(sobol_points(2, 64), n=1, a=0.0, seed=0)
    assert np.array_equal(d.points, [[0.5, 0.5]])
    assert d.provenance == "packing"


def test_greedy_packing_pure_is_deterministic():
    cand = sobol_points(2, 256)
    a = greedy_packing(cand, 20, a=0.0, seed=1)
    b = greedy_packing(cand, 20, a=0.0, seed=2)  # a=0: seed has no effect
    assert np.array_equal(a.points, b.points)


def test_greedy_packing_relaxed_deterministic_per_seed():
    cand = sobol_points(2, 256)
    a = greedy_packing(cand, 20, a=0.2, seed=5)
    b = greedy_packing(cand, 20, a=0.2, seed=5)
    c = greedy_packing(cand, 20, a=0.2, seed=6)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_greedy_packing_small_case_farthest_point():
    cand = np.array([[0.0], [1.0], [0.4]])
    d = greedy_packing(cand, 3, a=0.0, seed=0)
    # from the center 0.5, both 0 and 1 are at distance 0.5: lowest index wins
    assert d.points[1, 0] == 0.0
    assert d.points[2, 0] == 1.0


def test_greedy_packing_errors():
    with pytest.raises(EmptyCandidates):
        greedy_packing(np.empty((0, 2)), 1, 0.0, 0)
    with pytest.raises(TooManyPoints):
        greedy_packing(sobol_points(2, 8), 9, 0.0, 0)


def test_packing_efficiencies_meet_guarantee():
    cand = sobol_points(2, 2**12)
    design = greedy_packing(cand, 200, a=0.2, seed=7)
    rep = packing_covering_report(design, cand)
    assert rep["packing_efficiency_lb"] >= 0.4
    assert rep["covering_efficiency_lb"] >= 0.4
    # reported radii equal exhaustive recomputation
    assert rep["packing_radius"] == packing_radius(design)
    assert rep["covering_distance"] == nn_distance(cand, design, k=1)


def test_nn_distance_examples():
    design = np.array([[0.0], [1.0]])
    assert nn_distance(design, design, k=1) == 0.0
    assert np.isclose(nn_distance(np.array([[0.5]]), design, k=1), 0.5)
    assert np.isclose(nn_distance(np.array([[0.5]]), design, k=2), 0.5)
    with pytest.raises(KTooLarge):
        nn_distance(np.array([[0.5]]), design, k=3)


def test_nn_distance_matches_naive():
    gen = np.random.default_rng(2)
    design = gen.uniform(size=(17, 3))
    evals = gen.uniform(size=(101, 3))
    for k in (1, 3):
        naive = 0.0
        for x in evals:
            dists = np.sort(np.linalg.norm(design - x, axis=1))
            naive = max(naive, dists[k - 1])
        assert np.isclose(nn_distance(evals, design, k=k), naive, rtol=1e-14)


def test_packing_radius_grid():
    g = regular_grid(1, 11)
    assert np.isclose(packing_radius(g), 0.05)
    with pytest.raises(SinglePoint):
        packing_radius(Design(points=np.array([[0.5]])))


def test_theta_packing_rule_range():
    cand = sobol_points(2, 2**12)
    design = greedy_packing(cand, 200, a=0.2, seed=3)
    theta = theta_packing_rule(design)
    assert 31.0 < theta < 35.0


def test_theta_from_coverage_closed_forms():
    assert np.isclose(theta_from_coverage("inverse-multiquadric", 1.0, 0.25),
                      math.sqrt(3.0), rtol=1e-9)
    assert np.isclose(theta_from_coverage("gaussian", 1.0, 0.25),
                      math.sqrt(math.log(4.0)), rtol=1e-9)


def test_theta_from_coverage_matern52_reference_value():
    theta = theta_from_coverage("matern52", 0.267, 0.25)
    assert abs(theta - 5.97) < 0.03


def test_theta_from_coverage_no_root():
    with pytest.raises(NoRoot):
        theta_from_coverage("matern32", 1.0, 1.5)


def test_theta_loo_minimizer_property():
    design = Design(points=np.linspace(0, 1, 25)[:, None])
    y = sample_gp(KernelSpec("matern52", 12.0), design.points, seed=3)
    from looise.designs import THETA_LOO_GRID, _loo_criterion
    from looise.errors import NotPositiveDefinite
    from looise.kernels import kernel_matrix

    theta_hat = theta_loo(y, design, "matern52", mean_mode="zero")

    def objective(t):
        try:
            return _loo_criterion(
                kernel_matrix(KernelSpec("matern52", t), design.points), y, "zero")
        except NotPositiveDefinite:
            return math.inf

    best = objective(theta_hat)
    assert all(best <= objective(t) + 1e-12 for t in THETA_LOO_GRID)


def test_theta_loo_constant_mode_and_degenerate():
    design = Design(points=np.linspace(0, 1, 12)[:, None])
    y = sample_gp(KernelSpec("matern32", 8.0), design.points, seed=5) + 4.0
    theta_hat = theta_loo(y, design, "matern32", mean_mode="constant")
    assert theta_hat > 0
    with pytest.raises(DegenerateData):
        theta_loo(np.full(12, 2.0), design, "matern32", mean_mode="constant")


@pytest.mark.parametrize("mean_mode", ["zero", "constant"])
def test_theta_loo_fails_when_every_grid_node_is_singular(mean_mode):
    # two points 1e-13 apart leave K numerically singular at every grid range
    design = Design(points=[[0.0], [1e-13], [0.5], [0.9]])
    with pytest.raises(DegenerateData, match="every grid range"):
        theta_loo(np.array([0.1, 0.4, -0.3, 0.8]), design, "matern52", mean_mode=mean_mode)


def test_theta_loo_recovers_generating_scale():
    # seeded calibration: within a factor 2 of the true range in >= 90% of runs
    design = regular_grid(2, 8)
    theta0 = 10.0
    kernel = KernelSpec("matern52", theta0)
    hits = 0
    for rep in range(100):
        y = sample_gp(kernel, design.points, 1000, rep)
        theta_hat = theta_loo(y, design, "matern52", mean_mode="zero")
        if theta0 / 2 <= theta_hat <= theta0 * 2:
            hits += 1
    assert hits >= 90


def test_clamp_theta():
    assert clamp_theta(1.0) == 5.0
    assert clamp_theta(500.0) == 50.0
    assert clamp_theta(17.3) == 17.3


def test_design_csv_roundtrip():
    d = regular_grid(2, 3)
    text = design_to_csv(d)
    assert text.splitlines()[0] == "x1,x2"
    back = design_from_csv(text)
    assert np.array_equal(back.points, d.points)


def test_distinctness_check_does_not_hold_all_pairwise_distances():
    import tracemalloc

    pts = sobol_points(4, 2**13, scramble_seed=3)
    tracemalloc.start()
    try:
        assert Design(points=pts).n == 2**13
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20  # all pairs would take about 270 MB
    with pytest.raises(ValueError, match="distinct"):
        Design(points=np.vstack([pts, pts[17] + 1e-15]))
    assert Design(points=[[0.5, 0.5], [0.5, 0.5 + 1e-13]]).n == 2
