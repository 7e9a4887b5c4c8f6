"""Built-in invariant suite for `looise selftest`.

Each check is a small named assertion over seeded inputs: closed-form
LOO identities, moment-matrix structure, optimality and unbiasedness of
the weighted estimators, limit consistency, and the golden fixtures of
the benchmark functions. The whole suite runs in well under a minute.
Tier-1 runs the same registry, one test per check named after it
(tests/test_selftest.py). The comparisons with brute-force refits and
the dominance identities over many configurations are Tier-1 tests
only (tests/test_acceptance.py, tests/test_properties.py).
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import estimators, moments, numerics
from .designs import (
    Design,
    regular_grid,
    sobol_design,
    sobol_points,
    theta_from_coverage,
    uniform_measure,
)
from .errors import NotPositiveDefinite
from .kernels import (
    FAMILIES,
    KernelSpec,
    correlation,
    cross_matrix,
    kernel_eval,
    kernel_matrix,
)
from .predictors import (
    EmpiricalMean,
    OrdinaryKriging,
    SimpleKriging,
)
from .testbed import environmental, piston4d, sample_gp

# independent scripted evaluation (mpmath, 50 digits), locked once
ENV_GOLDEN = (
    ((0.0, 0.0), 37.796447300922723),
    ((0.5, 0.5), 69.359294300337187),
    ((0.25, 0.75), 13.875124778028086),
    ((1.0, 1.0), 8.1505621104135033),
    ((0.7, 0.31), 3.8035562048905382),
)
PISTON_GOLDEN = (
    ((0.0, 0.0, 0.0, 0.0), 0.45925072960273603),
    ((1.0, 1.0, 1.0, 1.0), 0.44519003813534001),
    ((0.5, 0.5, 0.5, 0.5), 0.4643970224718025),
    ((0.2, 0.8, 0.4, 0.6), 0.32660359277852317),
    ((0.9, 0.1, 0.7, 0.3), 0.82216551056822579),
)

CHECKS = []


def check(name):
    def deco(fn):
        CHECKS.append((name, fn))
        return fn

    return deco


def _raises(exc_type, fn, *args):
    try:
        fn(*args)
    except exc_type:
        return
    raise AssertionError(f"{fn.__name__} did not raise {exc_type.__name__}")


def _design(d=1, n=10, seed=0):
    return sobol_design(d, n, scramble_seed=seed)


def _setup(seed=0, n=12, d=1, theta_p=6.0, theta_e=8.0):
    design = _design(d, n, seed)
    pred = SimpleKriging(KernelSpec("matern52", theta_p), design)
    measure = uniform_measure(sobol_points(d, 128, scramble_seed=seed + 50))
    kern = KernelSpec("matern32", theta_e)
    bundle = moments.build_bundle(pred, kern, measure)
    y = sample_gp(kern, design.points, 7, seed)
    return design, pred, measure, kern, bundle, y


@check("kernels: unit diagonal and nugget")
def _k1():
    for fam in FAMILIES:
        for x in ([0.3], [0.2, 0.3]):
            assert kernel_eval(KernelSpec(fam, 2.0), x, x) == 1.0
        assert kernel_eval(KernelSpec(fam, 2.0, 0.25), [0.3], [0.3]) == 1.25


@check("kernels: monotone decay")
def _k2():
    for fam in FAMILIES:
        vals = correlation(fam, np.linspace(0, 5, 40))
        assert np.all(np.diff(vals) <= 0)
        spec = KernelSpec(fam, 2.0)
        vals = [kernel_eval(spec, [0.0], [d]) for d in np.linspace(0.0, 4.0, 60)]
        assert np.all(np.diff(vals) <= 0)
        assert vals[-1] < 2e-2  # inverse-multiquadric has the heaviest tail, 1/65 here


@check("kernels: nugget adds identity exactly")
def _k3():
    pts = sobol_points(2, 9, scramble_seed=1)
    K0 = kernel_matrix(KernelSpec("gaussian", 4.0), pts)
    K1 = kernel_matrix(KernelSpec("gaussian", 4.0, 0.125), pts)
    assert np.array_equal(K1, K0 + 0.125 * np.eye(9))


@check("numerics: factorization reconstructs input")
def _n1():
    for per_axis in (6, 10):
        K = kernel_matrix(KernelSpec("matern32", 10.0), regular_grid(2, per_axis).points)
        assert np.linalg.eigvalsh(K).min() > 0
        F = numerics.spd_factorize(K)
        assert F.jitter_applied == 0.0
        assert np.linalg.norm(F.reconstruct() - K) <= 1e-10 * np.linalg.norm(K)


@check("numerics: solve round trip")
def _n2():
    cases = [(kernel_matrix(KernelSpec("matern52", 5.0), sobol_points(1, 14, scramble_seed=2)),
              np.linspace(-1, 1, 14))]
    gen = np.random.default_rng(7)
    for _ in range(8):
        pts = gen.uniform(size=(12, 2))
        cases.append((kernel_matrix(KernelSpec("matern32", float(gen.uniform(2.0, 20.0))), pts),
                      gen.standard_normal(12)))
    for K, x in cases:
        F = numerics.spd_factorize(K)
        assert np.linalg.norm(numerics.solve(F, K @ x) - x) <= 1e-8 * np.linalg.norm(x)


@check("numerics: bordered inverse consistency")
def _n3():
    K = kernel_matrix(KernelSpec("matern32", 4.0), sobol_points(1, 8, scramble_seed=3))
    Mbar = numerics.bordered_inverse(numerics.DesignKernel(K))
    Kbar = np.block([[K, np.ones((8, 1))], [np.ones((1, 8)), np.zeros((1, 1))]])
    assert np.linalg.norm(Mbar @ Kbar - np.eye(9)) < 1e-9


@check("numerics: rank-one flat-limit matrix fails loudly")
def _n4():
    # the jitter ladder must not rescue a genuinely singular matrix
    for size in (5, 6):
        _raises(NotPositiveDefinite, numerics.spd_factorize, np.ones((size, size)))


@check("loo: deleted-point variance identity")
def _l5():
    design = _design(1, 10, 8)
    kern = KernelSpec("matern52", 7.0)
    pred = SimpleKriging(kern, design)
    K = kernel_matrix(kern, design.points)
    R = pred.loo.matrix
    M = np.linalg.inv(K)
    assert np.max(np.abs(np.diag(R.T @ K @ R) - 1.0 / np.diag(M))) < 1e-9


@check("loo: sum-to-one operators annihilate constants")
def _l6():
    design = _design(2, 10, 9)
    for pred in (OrdinaryKriging(KernelSpec("matern32", 6.0), design),
                 EmpiricalMean(design)):
        assert np.max(np.abs(pred.loo.matrix.T @ np.ones(10))) < 1e-10


@check("predictors: interpolation at design points")
def _p1():
    design = _design(2, 9, 10)
    pred = SimpleKriging(KernelSpec("matern52", 5.0), design)
    W = pred.weights_matrix(design.points)
    assert np.max(np.abs(W - np.eye(9))) < 1e-8


@check("predictors: ordinary kriging weights sum to one")
def _p2():
    design = _design(2, 12, 11)
    pred = OrdinaryKriging(KernelSpec("matern32", 7.0), design)
    W = pred.weights_matrix(sobol_points(2, 30, scramble_seed=12))
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) < 1e-10


def rho2(w, kernel: KernelSpec, design: Design, x) -> float:
    """Normalized expected squared prediction error at x for weights w."""
    w = np.asarray(w, dtype=float)
    k = cross_matrix(kernel, design.points, np.atleast_2d(np.asarray(x, float)))[0]
    K = kernel_matrix(kernel, design.points)
    return float(kernel_eval(kernel, x, x) - 2.0 * w @ k + w @ K @ w)


def t_vector(w, kernel: KernelSpec, design: Design, x) -> np.ndarray:
    """Normalized cross-moments E{y eps(x)}: k(x) - K w(x)."""
    w = np.asarray(w, dtype=float)
    k = cross_matrix(kernel, design.points, np.atleast_2d(np.asarray(x, float)))[0]
    K = kernel_matrix(kernel, design.points)
    return k - K @ w


@check("moments: matched-kernel prediction variance")
def _m1():
    design, pred, measure, kern, bundle, y = _setup(12)
    sk = SimpleKriging(kern, design)
    x = measure.points[13]
    K = kernel_matrix(kern, design.points)
    kx = cross_matrix(kern, design.points, np.atleast_2d(x))[0]
    assert abs(rho2(sk.weights(x), kern, design, x)
               - (1.0 - kx @ np.linalg.solve(K, kx))) < 1e-10


@check("moments: t = k - K w, zero for the matched predictor")
def _m2():
    design, pred, measure, kern, bundle, y = _setup(13)
    sk = SimpleKriging(kern, design)
    x = measure.points[7]
    assert np.max(np.abs(t_vector(sk.weights(x), kern, design, x))) < 1e-10
    n = design.n
    K = kernel_matrix(kern, design.points)
    kx = cross_matrix(kern, design.points, np.atleast_2d(x))[0]
    assert np.allclose(t_vector(np.zeros(n), kern, design, x), kx)
    assert np.allclose(t_vector(np.full(n, 1.0 / n), kern, design, x), kx - K @ np.ones(n) / n)


@check("moments: S minus u u^T is positive semidefinite")
def _m3():
    design = _design(2, 12, 9)
    ok = OrdinaryKriging(KernelSpec("matern32", 5.0), design)
    measure = uniform_measure(sobol_points(2, 128, scramble_seed=4))
    ok_bundle = moments.build_bundle(ok, KernelSpec("matern52", 8.0), measure)
    for bundle in (_setup(14)[4], ok_bundle):
        gap = bundle.S - np.outer(bundle.u, bundle.u)
        assert np.linalg.eigvalsh(gap).min() >= -1e-10 * np.linalg.norm(bundle.S)


@check("moments: matched simple kriging has b = J u, c = rho^2 u and closed-form S")
def _m4():
    design = _design(1, 10, 15)
    kern = KernelSpec("matern52", 7.0)
    pred = SimpleKriging(kern, design)
    measure = uniform_measure(sobol_points(1, 128, scramble_seed=16))
    bundle = moments.build_bundle(pred, kern, measure)
    assert np.max(np.abs(bundle.b - bundle.J * bundle.u)) < 1e-10 * bundle.J
    # S = u u^T + 2 (D M D)^{o2} with M = K^{-1} and D = diag(1 / M_ii)
    M = np.linalg.inv(kernel_matrix(kern, design.points))
    D = np.diag(1.0 / np.diag(M))
    S_star = np.outer(bundle.u, bundle.u) + 2.0 * (D @ M @ D) ** 2
    assert np.allclose(bundle.S, S_star, atol=1e-10 * np.abs(S_star).max())
    c_rows, rho = moments.pointwise_c_rho(bundle, measure.points[17:18])
    assert np.allclose(c_rows[0], rho[0] * bundle.u, atol=1e-12)


@check("moments: interpolator cross moments vanish on the design")
def _m5():
    design, pred, measure, kern, bundle, _ = _setup(17)
    c_rows, _ = moments.pointwise_c_rho(bundle, design.points)
    assert np.max(np.abs(c_rows)) < 1e-9


@check("moments: independent limit matches a huge range")
def _m6():
    design = regular_grid(2, 4)
    pred = SimpleKriging(KernelSpec("matern52", 4.0), design)
    measure = uniform_measure(sobol_points(2, 128, scramble_seed=18))
    big = moments.build_bundle(pred, KernelSpec("matern32", 1e6), measure)
    lim = moments.independent_limit_bundle(pred, measure)
    for field in ("u", "S", "b"):
        a, b = getattr(big, field), getattr(lim, field)
        assert np.linalg.norm(a - b) <= 1e-3 * np.linalg.norm(b)
    assert abs(big.J - lim.J) <= 1e-3 * abs(lim.J)


@check("moments: flat-limit diagnostics classify predictors")
def _m7():
    design = _design(2, 10, 19)
    measure = uniform_measure(sobol_points(2, 64, scramble_seed=20))
    def diagnostics(pred):  # J0 comes from the walk of the cheapest bundle
        return moments.flat_limit_diagnostics(moments.independent_limit_bundle(pred, measure))

    diag = diagnostics(OrdinaryKriging(KernelSpec("matern32", 6.0), design))
    assert diag["J0"] < 1e-12 and np.max(diag["u0"]) < 1e-12
    assert diag["sum_to_one_class"] and not diag["rank_one_S0"]
    assert diagnostics(EmpiricalMean(design))["J0"] < 1e-12
    diag = diagnostics(SimpleKriging(KernelSpec("matern52", 6.0), design))
    assert diag["rank_one_S0"] and not diag["sum_to_one_class"]
    assert np.allclose(diag["b0"], 3.0 * diag["J0"] * diag["u0"])


@check("estimators: weighted estimate clamps at zero")
def _e1():
    _, pred, _, _, bundle, y = _setup(21)
    eps = pred.loo_residuals(y)
    assert estimators.ise_blp(bundle, eps, clamp=True).value >= 0.0
    assert estimators.ise_blp(bundle, np.zeros_like(eps)).value == 0.0


@check("estimators: unbiasedness constraint holds exactly")
def _e2():
    _, _, _, _, bundle, _ = _setup(22)
    gamma = estimators.blup_weights(bundle)
    assert abs(gamma @ bundle.u - bundle.J) < 1e-10 * bundle.J


@check("estimators: optimal weights beat the unweighted mean and the zero estimate")
def _e3():
    _, pred, measure, kern, bundle, _ = _setup(23)
    n = bundle.n
    mse_blp = estimators.performance_report(bundle.gamma_blp, bundle).mse
    mse_loo = estimators.performance_report(np.full(n, 1.0 / n), bundle).mse
    assert mse_blp <= mse_loo + 1e-9 * abs(mse_loo)
    # strictly below J^2 + 2 V, the MSE of the zero estimate
    bundle = moments.build_bundle(pred, kern, measure, compute_Vn=True)
    mse_blp = estimators.performance_report(bundle.gamma_blp, bundle).mse
    assert mse_blp < bundle.J**2 + 2 * bundle.V


@check("estimators: matched weighted estimator is negatively biased")
def _e5():
    design = _design(1, 11, 25)
    kern = KernelSpec("matern32", 8.0)
    pred = SimpleKriging(kern, design)
    measure = uniform_measure(sobol_points(1, 128, scramble_seed=26))
    bundle = moments.build_bundle(pred, kern, measure)
    rep = estimators.performance_report(bundle.gamma_blp, bundle)
    assert rep.bias < 0


@check("estimators: translation invariance for sum-to-one predictors")
def _e6():
    design = _design(2, 10, 27)
    pred = OrdinaryKriging(KernelSpec("matern32", 6.0), design)
    measure = uniform_measure(sobol_points(2, 64, scramble_seed=28))
    bundle = moments.build_bundle(pred, KernelSpec("matern52", 7.0), measure)
    y = sample_gp(KernelSpec("matern32", 6.0), design.points, 29)
    a = estimators.ise_blp(bundle, pred.loo_residuals(y)).value
    b = estimators.ise_blp(bundle, pred.loo_residuals(y + 3.25)).value
    assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


@check("estimators: scale equivariance")
def _e7():
    _, pred, _, _, bundle, y = _setup(30)
    eps = pred.loo_residuals(y)
    for fn in (estimators.ise_blp, estimators.ise_blup):
        for clamp in (False, True):
            assert fn(bundle, 2 * eps, clamp).value == 4 * fn(bundle, eps, clamp).value
    assert estimators.ise_loo(2 * eps).value == 4 * estimators.ise_loo(eps).value


@check("estimators: trend correction is a no-op for ordinary kriging")
def _e8():
    design = _design(2, 11, 31)
    pred = OrdinaryKriging(KernelSpec("matern32", 5.0), design)
    measure = uniform_measure(sobol_points(2, 64, scramble_seed=32))
    kern = KernelSpec("matern52", 6.0)
    y = sample_gp(KernelSpec("matern32", 5.0), design.points, 33) + 5.0
    bundle = moments.build_bundle(pred, kern, measure)
    est = estimators.trend_corrected_ise(bundle, y)
    plain = estimators.ise_blp(bundle, pred.loo_residuals(y))
    assert est.trend_correction_applied and est.trend_amount < 1e-12
    assert abs(est.value - plain.value) <= 1e-10 * max(1.0, plain.value)


@check("designs: coverage rule round trip")
def _d1():
    for fam in FAMILIES:
        for D, target in [(0.31, 0.25), (0.1, 0.25), (1.3, 0.6), (0.9, 0.05)]:
            theta = theta_from_coverage(fam, D, target)
            assert abs(float(correlation(fam, theta * D)) - target) < 1e-9


@check("designs: unscrambled sequence starts at the origin")
def _d2():
    assert np.array_equal(sobol_points(2, 4)[0], [0.0, 0.0])
    assert np.array_equal(sobol_points(2, 1)[0], [0.0, 0.0])
    assert np.array_equal(sobol_points(1, 4).ravel(), [0.0, 0.5, 0.75, 0.25])


@check("fixtures: environmental model golden values")
def _f1():
    for x, expected in ENV_GOLDEN:
        assert math.isclose(environmental(x), expected, rel_tol=1e-12)


@check("fixtures: piston model golden values")
def _f2():
    for x, expected in PISTON_GOLDEN:
        assert math.isclose(piston4d(x), expected, rel_tol=1e-12)


def run_selftest(verbose: bool = True) -> bool:
    start = time.time()
    failures = []
    for name, fn in CHECKS:
        try:
            fn()
            status = "pass"
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append((name, exc))
            status = f"FAIL ({type(exc).__name__}: {exc})"
        if verbose:
            print(f"[{status:4s}] {name}" if status == "pass" else f"[FAIL] {name}: {status}")
    elapsed = time.time() - start
    if verbose:
        print(f"{len(CHECKS) - len(failures)}/{len(CHECKS)} checks passed "
              f"in {elapsed:.1f}s")
    return not failures
