import numpy as np
import pytest

from conftest import gp_draw, random_design, small_measure
from looise import moments
from looise import numerics
from looise.errors import (
    BundleMismatch,
    DegenerateConstraint,
    SingularGram,
)
from looise.estimators import (
    blp_pointwise,
    blup_weights,
    ise_blp,
    ise_blup,
    ise_loo,
    optimal_mixture_weights,
    performance_report,
    trend_corrected_ise,
)
from looise.kernels import KernelSpec, kernel_matrix
from looise.moments import (
    MomentBundle,
    build_bundle,
    independent_limit_bundle,
    mixture_bundle,
    support_blocks,
)
from looise.predictors import OrdinaryKriging, SimpleKriging


def make_bundle(seed=1, n=10, d=1, theta_e=7.0, theta_p=5.0, vn=False):
    design = random_design(d, n, seed=seed)
    p = SimpleKriging(KernelSpec("matern52", theta_p), design)
    measure = small_measure(d, 128, seed=seed + 100)
    kern = KernelSpec("matern32", theta_e)
    return p, build_bundle(p, kern, measure, compute_Vn=vn)


def test_ise_loo_basics():
    assert ise_loo(np.zeros(5)).value == 0.0
    assert ise_loo(np.ones(4)).value == 1.0


def test_ise_loo_simple_kriging_identity():
    design = random_design(1, 9, seed=3)
    kern = KernelSpec("matern32", 6.0)
    p = SimpleKriging(kern, design)
    y = gp_draw(kern, design, seed=3)
    M = np.linalg.inv(kernel_matrix(kern, design.points))
    D = np.diag(1.0 / np.diag(M))
    expected = float(y @ M @ D @ D @ M @ y) / 9
    assert np.isclose(ise_loo(p.loo_residuals(y)).value, expected, rtol=1e-10)


def test_blp_pointwise_zero_cases():
    p, bundle = make_bundle()
    y = gp_draw(KernelSpec("matern32", 7.0), p.design, seed=5)
    eps = p.loo_residuals(y)
    # c vanishes at design points of an interpolator
    assert blp_pointwise(bundle, eps, p.design.points[4]) == 0.0
    assert blp_pointwise(bundle, np.zeros(10), [0.3]) == 0.0


def test_ise_blp_matched_model_shortcut():
    # for the matched simple-kriging bundle, the unclamped estimate is
    # J * eps2^T S^{-1} u
    design = random_design(1, 8, seed=7)
    kern = KernelSpec("matern52", 8.0)
    p = SimpleKriging(kern, design)
    measure = small_measure(1, 128, seed=8)
    bundle = build_bundle(p, kern, measure)
    y = gp_draw(kern, design, seed=9)
    eps = p.loo_residuals(y)
    est = ise_blp(bundle, eps, clamp=False)
    expected = bundle.J * float((eps**2) @ bundle.solve_S(bundle.u))
    assert np.isclose(est.value, expected, rtol=1e-10)
    assert est.estimator == "blp"
    # stored weights reproduce the value
    assert np.isclose(est.gamma @ eps**2, est.value, rtol=1e-12)
    assert ise_blp(bundle, np.zeros(8), clamp=True).value == 0.0


def test_clamped_ise_blp_is_integral_of_clamped_pointwise():
    p, bundle = make_bundle(seed=11)
    y = gp_draw(KernelSpec("matern32", 7.0), p.design, seed=11)
    eps = p.loo_residuals(y)
    est = ise_blp(bundle, eps, clamp=True)
    vals = [blp_pointwise(bundle, eps, x, clamp=True) for x in bundle.measure.points]
    assert np.isclose(est.value, float(bundle.measure.weights @ np.array(vals)), rtol=1e-10)
    assert est.value >= 0.0


def _separate_pass(bundle, eps_sq, mode):
    """The clamped blp or blup integral by its own pass: per block, c(x)^T g
    and c(x)^T h by projecting rho^2 and G o G onto [g, h], as a walk does."""
    g = bundle.solve_S(eps_sq)
    h = bundle.solve_S(bundle.u)
    q = float(bundle.u @ h)
    ug = float(bundle.u @ g)
    total = 0.0
    for rows, X, mu in support_blocks(bundle.measure, moments.block_rows(bundle.n)):
        W = bundle.weights.block(rows.start, rows.stop)
        parts, rho = moments._rho_gg(bundle.components, X, W, bundle.design, bundle.R)
        cv = moments._project(parts, np.column_stack([g, h]))
        vals = cv[:, 0]
        if mode == "blup":
            vals = vals + (rho - cv[:, 1]) * (ug / q)
        total += float(mu @ np.maximum(vals, 0.0))
    return total


@pytest.mark.parametrize("kind", ["single", "mixture", "limit"])
def test_shared_pass_equals_separate_passes_bitwise(kind):
    design = random_design(2, 14, seed=41)
    p = OrdinaryKriging(KernelSpec("matern52", 5.0), design)
    measure = small_measure(2, 2 * 4096 + 77, seed=42)

    def fresh():
        if kind == "single":
            return build_bundle(p, KernelSpec("matern32", 8.0), measure)
        if kind == "mixture":
            return mixture_bundle(p, [KernelSpec("matern32", 8.0), KernelSpec("gaussian", 4.0)],
                                  [0.3, 0.7], measure)
        return independent_limit_bundle(p, measure)

    y = gp_draw(KernelSpec("matern32", 6.0), design, seed=43)
    eps1, eps2 = p.loo_residuals(y), p.loo_residuals(np.sin(7.0 * y))
    # the first eps fills b and J in its pass, the second has a pass of its own;
    # b read first, and the constraint solved first, leave the passes unchanged
    for first in ("clamped", "b", "constraint"):
        bundle = fresh()
        if first == "b":
            bundle.b
        elif first == "constraint":
            blup_weights(bundle)
        for eps in (eps1, eps2):
            assert ise_blp(bundle, eps).value == _separate_pass(bundle, eps * eps, "blp")
            assert ise_blup(bundle, eps).value == _separate_pass(bundle, eps * eps, "blup")


def test_degenerate_constraint_spares_the_clamped_blp(monkeypatch):
    import looise.moments as moments

    p, bundle = make_bundle(seed=19)
    eps = p.loo_residuals(gp_draw(KernelSpec("matern32", 7.0), p.design, seed=19))
    monkeypatch.setattr(moments, "CONSTRAINT_TOL", np.inf)  # every q counts as zero
    assert ise_blp(bundle, eps).value == _separate_pass(bundle, eps * eps, "blp")
    with pytest.raises(DegenerateConstraint, match=r"^u\^T S\^\{-1\} u is numerically zero$"):
        ise_blup(bundle, eps)
    with pytest.raises(DegenerateConstraint):
        ise_blup(bundle, eps, clamp=False)


def test_blup_equals_blp_when_already_unbiased(monkeypatch):
    _, bundle = make_bundle(seed=15)
    J = float(bundle.u @ bundle.solve_S(bundle.b))  # force zero correction
    monkeypatch.setattr(MomentBundle, "J", property(lambda self: J))
    assert np.allclose(blup_weights(bundle), bundle.solve_S(bundle.b), atol=1e-12)


def test_gamma_blp_is_solved_once_and_read_only():
    p, bundle = make_bundle(seed=19)
    eps = p.loo_residuals(gp_draw(KernelSpec("matern32", 7.0), p.design, seed=19))
    gamma = bundle.gamma_blp
    assert not gamma.flags.writeable
    with pytest.raises(ValueError):
        gamma[0] = 1.0
    assert np.array_equal(gamma, numerics.solve(bundle.S_fact, bundle.b))
    assert bundle.gamma_blp is gamma
    assert ise_blp(bundle, eps, clamp=False).gamma is gamma


def test_clamped_estimates_solve_no_gamma(monkeypatch):
    # a clamped estimate is not gamma^T eps^2: it carries no gamma, and the
    # walk's one solve for g and h is the only solve with S
    p, bundle = make_bundle(seed=19)
    eps = p.loo_residuals(gp_draw(KernelSpec("matern32", 7.0), p.design, seed=19))
    solves = []
    solve = MomentBundle.solve_S
    monkeypatch.setattr(MomentBundle, "solve_S",
                        lambda self, rhs: solves.append(np.shape(rhs)) or solve(self, rhs))
    blp, blup = ise_blp(bundle, eps), ise_blup(bundle, eps)
    assert blp.gamma is None and blup.gamma is None
    assert solves == [(10, 2)]
    assert bundle._gamma_blp is None


def test_performance_report_trivial_estimator():
    _, bundle = make_bundle(seed=17, vn=True)
    rep = performance_report(np.zeros(10), bundle)
    assert np.isclose(rep.mse, bundle.J**2 + 2 * bundle.V, rtol=1e-12)
    assert rep.vn_included


def test_matched_blup_predictor_bias_identity():
    # bias of the matched-model estimate equals -J / (1 + u^T Q^{-1} u),
    # Q = 2 (D M D)^{o2}; strictly negative
    design = random_design(1, 9, seed=19)
    kern = KernelSpec("matern32", 8.0)
    p = SimpleKriging(kern, design)
    measure = small_measure(1, 128, seed=20)
    bundle = build_bundle(p, kern, measure)
    gamma = bundle.solve_S(bundle.b)
    rep = performance_report(gamma, bundle)
    M = np.linalg.inv(kernel_matrix(kern, design.points))
    D = np.diag(1.0 / np.diag(M))
    Q = 2.0 * (D @ M @ D) ** 2
    expected = -bundle.J / (1.0 + bundle.u @ np.linalg.solve(Q, bundle.u))
    assert rep.bias < 0
    assert np.isclose(rep.bias, expected, rtol=1e-8)


def test_mixture_mse_is_the_nu_mixture_of_single_kernel_mses():
    # E[ISE^2] under a mixture is sum_k nu_k (J_k^2 + 2 V_k), not J^2 + 2 sum_k nu_k V_k
    from looise.designs import sobol_design, sobol_measure

    design = sobol_design(2, 12, scramble_seed=3)
    p = SimpleKriging(KernelSpec("matern52", 4.0), design)
    measure = sobol_measure(2, 256)
    kernels = [KernelSpec("matern32", 2.0), KernelSpec("gaussian", 20.0)]
    mix = mixture_bundle(p, kernels, [0.5, 0.5], measure, compute_Vn=True)
    singles = [build_bundle(p, k, measure, compute_Vn=True) for k in kernels]
    for gamma in (np.zeros(12), np.full(12, 1.0 / 12)):
        want = sum(0.5 * performance_report(gamma, b).mse for b in singles)
        assert np.isclose(performance_report(gamma, mix).mse, want, rtol=1e-12, atol=0.0)


def test_blp_beats_other_weights_under_matched_kernel():
    gen = np.random.default_rng(0)
    for seed in range(20):
        _, bundle = make_bundle(seed=30 + seed, vn=False)
        gamma_blp = bundle.solve_S(bundle.b)
        mse_blp = performance_report(gamma_blp, bundle).mse
        n = bundle.n
        candidates = [np.full(n, 1.0 / n), blup_weights(bundle)]
        for _ in range(3):
            v = gen.exponential(size=n)
            candidates.append(v / v.sum())
        for gamma in candidates:
            assert performance_report(gamma, bundle).mse >= mse_blp - 1e-9 * abs(mse_blp)


def test_trend_correction_constant_data():
    design = random_design(1, 7, seed=57)
    kern = KernelSpec("matern32", 6.0)
    p = SimpleKriging(kern, design)
    measure = small_measure(1, 64, seed=58)
    c = 4.25
    est = trend_corrected_ise(build_bundle(p, kern, measure), np.full(7, c))
    K = kernel_matrix(kern, design.points)
    tau = float(np.ones(7) @ np.linalg.solve(K, np.full(7, c))
                / (np.ones(7) @ np.linalg.solve(K, np.ones(7))))
    assert np.isclose(tau, c, rtol=1e-10)
    # centered data leaves zero residuals; value is purely the trend term
    W = p.weights_matrix(measure.points)
    defect = float(measure.weights @ (1.0 - W.sum(axis=1)) ** 2)
    assert np.isclose(est.value, c * c * defect, rtol=1e-8)


def test_trend_correction_reuses_the_bundle_kernel_matrix(monkeypatch):
    design = random_design(2, 12, seed=61)
    p = SimpleKriging(KernelSpec("matern32", 5.0), design)
    measure = small_measure(2, 64, seed=62)
    kern = KernelSpec("matern52", 6.0)
    y = gp_draw(KernelSpec("matern32", 5.0), design, seed=63) + 2.0
    bundle = build_bundle(p, kern, measure)
    fresh = trend_corrected_ise(build_bundle(p, kern, measure), y)
    calls = []

    def counting(spec, X):
        calls.append(spec)
        return kernel_matrix(spec, X)

    monkeypatch.setattr(moments, "kernel_matrix", counting)
    reused = trend_corrected_ise(bundle, y)
    assert calls == []
    assert reused.value == fresh.value
    with pytest.raises(BundleMismatch):
        trend_corrected_ise(independent_limit_bundle(p, measure), y)


def test_trend_correction_rejects_an_unknown_estimator():
    _, bundle = make_bundle(seed=65)
    with pytest.raises(ValueError, match="blp"):
        trend_corrected_ise(bundle, np.ones(10), estimator="loo")


def test_optimal_mixture_weights():
    assert np.allclose(optimal_mixture_weights(np.array([[1.0, 2.0, 0.5]]),
                                               np.full(3, 1 / 3)), [1.0])
    E = np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5]])
    with pytest.raises(SingularGram):
        optimal_mixture_weights(E, np.full(3, 1 / 3))
    gen = np.random.default_rng(5)
    E = gen.standard_normal((3, 12))
    gamma = np.full(12, 1.0 / 12)
    nu = optimal_mixture_weights(E, gamma)
    assert np.isclose(nu.sum(), 1.0, atol=1e-12)
    G = (E * gamma) @ E.T
    obj = float(nu @ G @ nu)
    for t in range(3):
        e = np.zeros(3)
        e[t] = 1.0
        assert obj <= e @ G @ e + 1e-12


