import json

import numpy as np
import pytest

from conftest import gp_draw, predict, predict_many, random_design
from reference_oracle import loo_residuals_bruteforce
from looise import numerics
from looise.designs import Design, regular_grid, sobol_points, uniform_measure
from looise.errors import (
    DegenerateData,
    DimensionMismatch,
    DomainViolation,
    LooiseError,
    NotPositiveDefinite,
    RankDeficient,
    WeightSimplexViolation,
)
from looise.kernels import COINCIDENCE_TOL, KernelSpec
from looise.predictors import (
    POLY_INDEX_TABLE_D2_M50,
    BayesPolynomial,
    EmpiricalMean,
    FixedMixture,
    OrdinaryKriging,
    SimpleKriging,
    TableWeights,
    legendre_orthonormal,
    poly_basis,
    poly_prior_weights,
    tensor_basis,
)


def loo_matrix_by_component(mixture, y) -> np.ndarray:
    """(T, n) matrix of per-component LOO residuals for the same y."""
    return np.stack([c.loo_residuals(y) for c in mixture.components])


def test_empirical_mean_weights():
    p = EmpiricalMean(random_design(1, 7, seed=2))
    assert np.allclose(p.weights([0.3]), 1.0 / 7)


def test_predict_examples():
    design = random_design(1, 9, seed=4)
    y = gp_draw(KernelSpec("matern32", 5.0), design, seed=4)
    p = SimpleKriging(KernelSpec("matern32", 5.0), design)
    assert np.isclose(predict(p, y, design.points[2]), y[2], atol=1e-8)
    assert predict(p, np.zeros(9), [0.5]) == 0.0


def test_bayes_polynomial_not_interpolating():
    design = regular_grid(2, 5)
    idx, lam = poly_basis(2, 10)
    p = BayesPolynomial(idx, lam, 0.1, design)
    y = gp_draw(KernelSpec("matern32", 10.0), design, seed=7)
    preds = predict_many(p, y, design.points)
    assert np.max(np.abs(preds - y)) > 1e-3


def test_mixture_loo_matches_bruteforce():
    design = random_design(2, 10, seed=13)
    comps = [SimpleKriging(KernelSpec("matern52", 4.0), design),
             SimpleKriging(KernelSpec("matern32", 9.0), design)]
    p = FixedMixture(comps, [0.3, 0.7])
    y = gp_draw(KernelSpec("matern32", 6.0), design, seed=13)
    assert np.max(np.abs(p.loo_residuals(y) - loo_residuals_bruteforce(p, y))) < 1e-8
    E = loo_matrix_by_component(p, y)
    assert E.shape == (2, 10)
    assert np.allclose(0.3 * E[0] + 0.7 * E[1], p.loo_residuals(y))


def test_empirical_mean_n2():
    p = EmpiricalMean(Design(points=np.array([[0.1], [0.9]])))
    eps = p.loo_residuals(np.array([3.0, 1.0]))
    assert np.allclose(eps, [2.0, -2.0])


@pytest.mark.parametrize("make", [EmpiricalMean,
                                  lambda d: OrdinaryKriging(KernelSpec("matern52", 5.0), d)],
                         ids=["empirical-mean", "ordinary-kriging"])
def test_one_point_sum_to_one_predictors_have_no_loo(make):
    import warnings

    pred = make(Design(points=np.array([[0.4]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # it raises before any 0 / 0
        with pytest.raises(DegenerateData, match="one-point sum-to-one predictor is undefined"):
            pred.loo_residuals(np.array([1.5]))


def test_ordinary_kriging_constant_data_zero_residuals():
    design = random_design(1, 8, seed=17)
    p = OrdinaryKriging(KernelSpec("matern52", 5.0), design)
    eps = p.loo_residuals(np.full(8, 3.7))
    assert np.max(np.abs(eps)) < 1e-10


def test_simple_kriging_residual_identity():
    # eps_i * M_ii = (K^{-1} y)_i
    design = random_design(1, 11, seed=19)
    kern = KernelSpec("matern32", 7.0)
    p = SimpleKriging(kern, design)
    y = gp_draw(kern, design, seed=19)
    from looise.kernels import kernel_matrix

    M = np.linalg.inv(kernel_matrix(kern, design.points))
    eps = p.loo_residuals(y)
    assert np.allclose(eps * np.diag(M), M @ y, atol=1e-9)


KRIGING = {
    "simple": lambda d: SimpleKriging(KernelSpec("matern52", 7.0), d),
    "ordinary": lambda d: OrdinaryKriging(KernelSpec("matern32", 5.0), d),
    "polynomial": lambda d: BayesPolynomial(*poly_basis(2, 12, c=10.0), 0.05, d),
}


def test_ordinary_kriging_solves_k_inverse_ones_once(monkeypatch):
    vectors = []
    solve = numerics.solve

    def counting_solve(F, B):
        vectors.append(np.ndim(B) == 1)
        return solve(F, B)

    monkeypatch.setattr(numerics, "solve", counting_solve)
    p = KRIGING["ordinary"](random_design(2, 14, seed=9))
    p.loo
    for X in np.split(sobol_points(2, 64, scramble_seed=3), 2):
        p.weights_matrix(X)
    assert sum(vectors) == 1


@pytest.mark.parametrize("make", KRIGING.values(), ids=KRIGING.keys())
def test_each_kriging_predictor_inverts_k_once(monkeypatch, make):
    calls = []
    inverse = numerics.inverse
    monkeypatch.setattr(numerics, "inverse", lambda F: calls.append(F) or inverse(F))
    p = make(random_design(2, 14, seed=9))
    p.loo
    for X in np.split(sobol_points(2, 96, scramble_seed=4), 3):
        p.weights_matrix(X)
    assert len(calls) == 1
    assert p.record.inverse is p.record.inverse


@pytest.mark.parametrize("make", [
    lambda d: SimpleKriging(KernelSpec("gaussian", 0.5), d),
    lambda d: OrdinaryKriging(KernelSpec("gaussian", 0.5), d),
    lambda d: BayesPolynomial(*poly_basis(1, 5), 0.0, d),
], ids=["simple", "ordinary", "polynomial"])
def test_a_singular_k_fails_at_construction(make):
    # on 30 equispaced points the Gaussian matrix at theta = 0.5 is singular
    # to rounding, and the noise-free 5-term polynomial kernel has rank 5
    with pytest.raises(NotPositiveDefinite):
        make(Design(points=np.linspace(0, 1, 30)[:, None]))


def test_legendre_closed_forms():
    x = np.linspace(0, 1, 7)
    assert np.allclose(legendre_orthonormal(0, x), 1.0)
    assert np.allclose(legendre_orthonormal(1, x), np.sqrt(3) * (2 * x - 1))
    assert np.allclose(legendre_orthonormal(2, x), np.sqrt(5) * (6 * x**2 - 6 * x + 1))
    assert np.allclose(legendre_orthonormal(3, x),
                       np.sqrt(7) * (20 * x**3 - 30 * x**2 + 12 * x - 1))


def test_legendre_orthonormal_on_unit_interval():
    nodes, weights = np.polynomial.legendre.leggauss(24)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    for j in range(9):
        for k in range(j, 9):
            ip = float(np.sum(w * legendre_orthonormal(j, x) * legendre_orthonormal(k, x)))
            assert abs(ip - (1.0 if j == k else 0.0)) < 1e-12


def test_poly_index_table_shape():
    idx = np.asarray(POLY_INDEX_TABLE_D2_M50)
    assert idx.shape == (50, 2)
    assert idx.max() == 8
    assert idx.sum(axis=1).max() == 9
    # prior weights are nonincreasing down the table
    lam = poly_prior_weights(idx)
    assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_poly_basis_generic_selection():
    idx, lam = poly_basis(3, 20)
    assert idx.shape == (20, 3)
    assert all(a >= b for a, b in zip(lam, lam[1:]))


@pytest.mark.parametrize("d, terms", [(1, 13), (2, 91), (3, 455)])  # C(12 + d, d)
def test_poly_basis_takes_one_to_all_terms_of_degree_at_most_12(d, terms):
    assert poly_basis(d, 1)[0].shape == (1, d)
    assert poly_basis(d, terms)[0].sum(axis=1).max() == 12
    for m in (-3, 0, terms + 1, 500):
        with pytest.raises(ValueError, match="is outside"):
            poly_basis(d, m)


@pytest.mark.parametrize("m", [10, 50])  # 50 is the shipped table at d = 2
def test_poly_basis_rejects_a_decay_below_one(m):
    with pytest.raises(ValueError, match="decay t = 0.5 is below 1"):
        poly_basis(2, m, t=0.5)


@pytest.mark.parametrize("m", [10, 50])
@pytest.mark.parametrize("c", [0.0, -1.0])  # c = -1 would give Lambda > 0 at even d
def test_poly_basis_rejects_a_scale_that_is_not_positive(m, c):
    with pytest.raises(ValueError, match=f"scale c = {c} is not positive"):
        poly_basis(2, m, c=c)


def test_bayes_polynomial_rejects_a_negative_noise_variance():
    design = regular_grid(2, 5)
    idx, lam = poly_basis(2, 10)
    with pytest.raises(ValueError, match="noise variance -0.5 is negative"):
        BayesPolynomial(idx, lam, -0.5, design)
    # noise 0 is the noise-free prior; 10 terms on 9 points leave K_n positive definite
    assert BayesPolynomial(idx, lam, 0.0, regular_grid(2, 3)).noise_var == 0.0


def test_tensor_basis_values():
    idx = np.array([[0, 0], [1, 0], [0, 2]])
    X = np.array([[0.3, 0.7]])
    out = tensor_basis(X, idx)
    assert np.isclose(out[0, 0], 1.0)
    assert np.isclose(out[0, 1], np.sqrt(3) * (2 * 0.3 - 1))
    assert np.isclose(out[0, 2], np.sqrt(5) * (6 * 0.49 - 6 * 0.7 + 1))


def test_mixture_weight_validation():
    design = random_design(1, 6, seed=2)
    comps = [EmpiricalMean(design), EmpiricalMean(design)]
    with pytest.raises(WeightSimplexViolation):
        FixedMixture(comps, [0.6, 0.6])
    with pytest.raises(WeightSimplexViolation):
        FixedMixture(comps, [np.nan, 1.0])
    FixedMixture(comps, [1.4, -0.4])  # affine weights allowed


def test_table_weights_lookup_and_errors():
    design = random_design(1, 4, seed=3)
    support = np.array([[0.0], [0.2], [0.3]])
    table = np.tile(np.array([0.25, 0.25, 0.25, 0.25]), (3, 1))
    p = TableWeights(support, table, design)
    assert np.allclose(p.weights([0.2]), 0.25)
    assert np.allclose(p.weights([-0.0]), 0.25)  # signed zeros match
    with pytest.raises(LooiseError):
        p.weights([0.99])
    with pytest.raises(LooiseError):
        p.loo


def test_table_weights_support_rounded_to_15_digits_returns_the_exact_rows():
    design = random_design(2, 5, seed=5)
    support = sobol_points(2, 64, scramble_seed=6)
    rounded = np.array([[float(f"{v:.15g}") for v in row] for row in support])
    assert (rounded != support).any()
    table = np.random.default_rng(7).standard_normal((64, 5))
    p = TableWeights(rounded, table, design)
    assert np.array_equal(p.weights_matrix(support), table)
    assert np.array_equal(p.weights_matrix(support[::-1]), table[::-1])


def test_table_weights_far_point_names_the_nearest_distance():
    design = random_design(1, 4, seed=3)
    p = TableWeights(np.array([[0.0], [0.2]]), np.full((2, 4), 0.25), design)
    with pytest.raises(DomainViolation, match="is 1e-12 from the nearest known point"):
        p.weights([0.2 + 1e-12])


def test_mixture_designs_match_under_the_coincidence_rule():
    design = random_design(2, 6, seed=8)
    near = Design(points=design.points + 3e-16)
    FixedMixture([EmpiricalMean(design), EmpiricalMean(near)], [0.5, 0.5])
    moved = design.points.copy()
    moved[2, 0] += 1e-12
    with pytest.raises(DimensionMismatch):
        FixedMixture([EmpiricalMean(design), EmpiricalMean(Design(points=moved))],
                     [0.5, 0.5])
    with pytest.raises(DimensionMismatch):  # same points, other order
        FixedMixture([EmpiricalMean(design), EmpiricalMean(Design(points=design.points[::-1]))],
                     [0.5, 0.5])


def test_table_weights_rank_deficient_loo():
    design = random_design(1, 3, seed=4)
    support = np.array([[0.5]])
    table = np.full((1, 3), 1.0 / 3)
    singular = np.ones((3, 3))
    p = TableWeights(support, table, design, loo_matrix=singular)
    with pytest.raises(RankDeficient):
        p.loo


def test_kriging_predictors_keep_no_kernel_matrix():
    # nothing reads K_n once it is factorized, so the record drops it
    from looise.kernels import cross_matrix, kernel_matrix

    design = random_design(2, 12, seed=4)
    kern = KernelSpec("matern32", 5.0)
    idx, lam = poly_basis(2, 6)
    for pred in (SimpleKriging(kern, design), OrdinaryKriging(kern, design),
                 BayesPolynomial(idx, lam, 0.1, design)):
        assert pred.record.K is None
    X = sobol_points(2, 16)
    full = numerics.DesignKernel(kernel_matrix(kern, design.points))
    assert np.array_equal(SimpleKriging(kern, design).weights_matrix(X),
                          cross_matrix(kern, design.points, X) @ full.inverse)


@pytest.fixture
def svd_calls(monkeypatch):
    """The number of SVDs run since the fixture was set up, as a one-item list."""
    calls, svd = [0], np.linalg.svd

    def counting(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_the_published_kriging_workloads_run_no_svd(svd_calls, tmp_path, capsys):
    from looise.cli import main
    from looise.reproduce import run_table2

    run_table2(str(tmp_path / "table2"), threads=1, n_designs=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("design.generator = sobol\ndesign.d = 4\ndesign.n = 30\n"
                   "function.name = piston4d\nmeasure.sobol_n = 1024\n"
                   "predictor.variant = simple-kriging\npredictor.kernel.family = matern52\n"
                   "predictor.kernel.theta = 5\nestimator.kernel.family = matern32\n"
                   "estimator.kernel.theta = loo\nestimator.clamp = true\n")
    assert main(["estimate", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["loo_full_rank"] is True
    assert svd_calls[0] == 0


def test_bordered_and_ill_conditioned_loo_operators_still_run_the_svd(svd_calls):
    from looise.reproduce import _grid_study

    pred, _, _ = _grid_study("poly")  # Table 1's polynomial row: cond_2(R) bound 1.2e11
    assert isinstance(pred, BayesPolynomial) and svd_calls[0] == 1
    OrdinaryKriging(KernelSpec("matern32", 5.0), random_design(2, 12, seed=4)).loo
    assert svd_calls[0] == 2


def test_a_table_hands_out_its_rows_only_over_its_own_distinct_support():
    from looise.moments import WeightSource

    design = random_design(2, 5, seed=5)
    support = sobol_points(2, 64, scramble_seed=6)
    table = np.random.default_rng(7).standard_normal((64, 5))
    p = TableWeights(support, table, design)
    assert p.table_on(support) is p.table and p.table_on(support.copy()) is p.table
    assert p.table_on(support[::-1]) is None and p.table_on(support[:32]) is None
    assert np.array_equal(WeightSource(p, uniform_measure(support)).block(32, 64), table[32:])
    # a support whose points coincide is refused, as a design's is, naming both rows
    dup = support.copy()
    dup[40] = dup[10] + 0.5 * COINCIDENCE_TOL
    with pytest.raises(ValueError, match="points 10 and 40 coincide"):
        TableWeights(dup, table, design)
