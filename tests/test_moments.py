import numpy as np
import pytest

from conftest import random_design, small_measure
from looise.designs import Design, uniform_measure
from looise.errors import DomainViolation, FlatLimitSingular, WeightSimplexViolation
from looise.kernels import KernelSpec, cross_matrix, kernel_eval, kernel_matrix
from looise.moments import (
    build_bundle,
    flat_limit_diagnostics,
    independent_limit_bundle,
    mixture_bundle,
    pointwise_c_rho,
)
from looise.predictors import EmpiricalMean, OrdinaryKriging, SimpleKriging
from looise.rng import stream
from looise.selftest import rho2


def rho2_cross(w1, w2, kernel: KernelSpec, design: Design, x1, x2) -> float:
    """Normalized covariance of the prediction errors at x1 and x2."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    k1 = cross_matrix(kernel, design.points, np.atleast_2d(np.asarray(x1, float)))[0]
    k2 = cross_matrix(kernel, design.points, np.atleast_2d(np.asarray(x2, float)))[0]
    K = kernel_matrix(kernel, design.points)
    return float(kernel_eval(kernel, x1, x2) - w1 @ k2 - w2 @ k1 + w1 @ K @ w2)


def test_rho2_interpolator_zero_at_design():
    design = random_design(2, 10, seed=1)
    kern = KernelSpec("matern52", 6.0)
    p = SimpleKriging(kern, design)
    x = design.points[3]
    assert abs(rho2(p.weights(x), kern, design, x)) < 1e-9


def test_rho2_zero_weights():
    design = random_design(1, 5, seed=2)
    kern = KernelSpec("matern32", 4.0, nugget=0.25)
    assert np.isclose(rho2(np.zeros(5), kern, design, [0.37]), 1.25)


def test_rho2_cross_diagonal_consistency():
    design = random_design(2, 7, seed=4)
    kern = KernelSpec("matern32", 5.0)
    p = EmpiricalMean(design)
    x = np.array([0.3, 0.8])
    w = p.weights(x)
    assert np.isclose(rho2_cross(w, w, kern, design, x, x),
                      rho2(w, kern, design, x), rtol=1e-12)


def test_rho2_cross_zero_at_design_for_interpolator():
    design = random_design(2, 9, seed=5)
    kern = KernelSpec("matern52", 7.0)
    p = SimpleKriging(kern, design)
    xi = design.points[2]
    x2 = np.array([0.9, 0.1])
    assert abs(rho2_cross(p.weights(xi), p.weights(x2), kern, design, xi, x2)) < 1e-8


def test_rho2_cross_monte_carlo():
    design = Design(points=np.linspace(0, 1, 6)[:, None])
    kern = KernelSpec("matern32", 5.0)
    p = SimpleKriging(KernelSpec("matern52", 8.0), design)
    x1, x2 = np.array([0.22]), np.array([0.67])
    w1, w2 = p.weights(x1), p.weights(x2)
    expected = rho2_cross(w1, w2, kern, design, x1, x2)
    joint = np.vstack([design.points, x1[None, :], x2[None, :]])
    L = np.linalg.cholesky(kernel_matrix(kern, joint) + 1e-12 * np.eye(8))
    Y = stream(55).standard_normal((40000, 8)) @ L.T
    e1 = Y[:, 6] - Y[:, :6] @ w1
    e2 = Y[:, 7] - Y[:, :6] @ w2
    prod = e1 * e2
    se = prod.std() / np.sqrt(len(prod))
    assert abs(prod.mean() - expected) <= 3 * se


def test_bundle_identity_case():
    # R = I, K ~ I (huge range): u = 1, S = 1 1^T + 2 I
    design = random_design(2, 6, seed=8)
    kern = KernelSpec("gaussian", 1e8)
    measure = small_measure(2, 64, seed=2)
    bundle = build_bundle(np.eye(6), np.zeros((measure.size, 6)), kern, design, measure)
    assert np.allclose(bundle.u, 1.0)
    assert np.allclose(bundle.S, np.ones((6, 6)) + 2.0 * np.eye(6))
    assert np.isclose(bundle.J, 1.0)  # J = K(x,x) for zero weights


def test_bundle_b_matches_streamed_c():
    design = random_design(1, 8, seed=10)
    p = SimpleKriging(KernelSpec("matern32", 6.0), design)
    measure = small_measure(1, 100, seed=5)
    kern = KernelSpec("matern32", 9.0)
    bundle = build_bundle(p.loo, p, kern, design, measure)
    c_rows, rho = pointwise_c_rho(bundle, measure.points)
    assert np.allclose(measure.weights @ c_rows, bundle.b, rtol=1e-13)
    assert np.isclose(measure.weights @ rho, bundle.J, rtol=1e-13)


def test_monte_carlo_moments_smallscale():
    # 2e4-draw sanity check of u, S and c against empirical fourth moments
    design = Design(points=np.linspace(0, 1, 8)[:, None])
    kern = KernelSpec("matern32", 6.0)
    p = SimpleKriging(KernelSpec("matern52", 9.0), design)
    measure = uniform_measure(np.array([[0.23], [0.71]]))
    bundle = build_bundle(p.loo, p, kern, design, measure, compute_Vn=True)

    ndraw = 20000
    joint = np.vstack([design.points, measure.points])
    L = np.linalg.cholesky(kernel_matrix(kern, joint) + 1e-12 * np.eye(10))
    z = stream(99).standard_normal((ndraw, 10))
    Y = z @ L.T
    yn, fx = Y[:, :8], Y[:, 8:]
    eps_loo = yn @ bundle.R
    eps_sq = eps_loo**2
    u_emp = eps_sq.mean(axis=0)
    se_u = eps_sq.std(axis=0) / np.sqrt(ndraw)
    assert np.all(np.abs(u_emp - bundle.u) <= 4 * se_u)
    prods = eps_sq[:, :, None] * eps_sq[:, None, :]
    S_emp = prods.mean(axis=0)
    se_S = prods.std(axis=0) / np.sqrt(ndraw)
    assert np.all(np.abs(S_emp - bundle.S) <= 4 * se_S + 1e-12)
    errs = (fx - yn @ p.weights_matrix(measure.points).T) ** 2
    c_rows, _ = pointwise_c_rho(bundle, measure.points)
    for j in range(2):
        prod = errs[:, j : j + 1] * eps_sq
        c_emp = prod.mean(axis=0)
        se_c = prod.std(axis=0) / np.sqrt(ndraw)
        assert np.all(np.abs(c_emp - c_rows[j]) <= 4 * se_c + 1e-12)


def test_independent_limit_zero_weights():
    design = random_design(1, 5, seed=11)
    measure = small_measure(1, 64, seed=7)
    lim = independent_limit_bundle(np.eye(5), np.zeros((measure.size, 5)),
                                   design, measure)
    assert np.isclose(lim.J, 1.0)


def test_flat_limit_singular_raised():
    # tiny assumed range on a non-sum-to-one predictor degenerates S
    design = random_design(1, 10, seed=13)
    p = SimpleKriging(KernelSpec("matern52", 8.0), design)
    measure = small_measure(1, 64, seed=9)
    with pytest.raises(FlatLimitSingular):
        build_bundle(p.loo, p, KernelSpec("gaussian", 1e-5), design, measure)


def test_vn_loop_order_invariance():
    design = random_design(1, 6, seed=14)
    p = SimpleKriging(KernelSpec("matern32", 7.0), design)
    measure = small_measure(1, 100, seed=10)
    kern = KernelSpec("matern32", 5.0)
    bundle = build_bundle(p.loo, p, kern, design, measure, compute_Vn=True)
    # direct double loop in the transposed order
    W = p.weights_matrix(measure.points)
    total = 0.0
    for jdx in range(measure.size):
        for idx in range(measure.size):
            val = rho2_cross(W[idx], W[jdx], kern, design,
                             measure.points[idx], measure.points[jdx])
            total += measure.weights[idx] * measure.weights[jdx] * val**2
    assert np.isclose(total, bundle.V, rtol=1e-10)


def test_mixture_bundle_reductions():
    design = random_design(2, 8, seed=15)
    p = OrdinaryKriging(KernelSpec("matern32", 6.0), design)
    measure = small_measure(2, 64, seed=11)
    R = p.loo
    k1 = KernelSpec("matern32", 5.0)
    k2 = KernelSpec("gaussian", 9.0)
    single = build_bundle(R, p, k1, design, measure, compute_Vn=True)
    m1 = mixture_bundle([k1], [1.0], R, p, design, measure, compute_Vn=True)
    m10 = mixture_bundle([k1, k2], [1.0, 0.0], R, p, design, measure, compute_Vn=True)
    for m in (m1, m10):
        assert np.allclose(m.u, single.u)
        assert np.allclose(m.S, single.S)
        assert np.allclose(m.b, single.b)
        assert np.isclose(m.J, single.J)
        assert np.isclose(m.V, single.V)
    with pytest.raises(WeightSimplexViolation):
        mixture_bundle([k1, k2], [0.7, 0.6], R, p, design, measure)
    with pytest.raises(WeightSimplexViolation):
        mixture_bundle([k1, k2], [1.5, -0.5], R, p, design, measure)


def test_mixture_bundle_monte_carlo():
    # hierarchical draws: pick component, then a GP sample from it
    design = Design(points=np.linspace(0, 1, 7)[:, None])
    p = SimpleKriging(KernelSpec("matern52", 8.0), design)
    measure = uniform_measure(np.array([[0.33]]))
    k1, k2 = KernelSpec("matern32", 3.0), KernelSpec("gaussian", 12.0)
    nu = [0.4, 0.6]
    R = p.loo
    bundle = mixture_bundle([k1, k2], nu, R, p, design, measure)

    ndraw = 60000
    gen = stream(7)
    joint = np.vstack([design.points, measure.points])
    Ls = [np.linalg.cholesky(kernel_matrix(k, joint) + 1e-12 * np.eye(8)) for k in (k1, k2)]
    picks = gen.choice(2, size=ndraw, p=nu)
    z = gen.standard_normal((ndraw, 8))
    Y = np.where((picks == 0)[:, None], z @ Ls[0].T, z @ Ls[1].T)
    eps_sq = (Y[:, :7] @ bundle.R) ** 2
    S_emp = (eps_sq[:, :, None] * eps_sq[:, None, :]).mean(axis=0)
    se = (eps_sq[:, :, None] * eps_sq[:, None, :]).std(axis=0) / np.sqrt(ndraw)
    assert np.all(np.abs(S_emp - bundle.S) <= 4 * se + 1e-12)


def test_bundle_builds_each_kernel_matrix_once(monkeypatch):
    # K_e is kept on its component's record: the three support blocks, the
    # clamped estimates and the trend correction reuse it instead of rebuilding it
    import looise.moments as moments

    calls = []

    def counting(spec, X):
        calls.append(spec)
        return kernel_matrix(spec, X)

    design = random_design(2, 12, seed=21)
    measure = small_measure(2, 3 * moments.BLOCK, seed=22)
    p = SimpleKriging(KernelSpec("matern52", 6.0), design)
    eps = p.loo_residuals(np.linspace(-1.0, 1.0, 12))
    monkeypatch.setattr(moments, "kernel_matrix", counting)
    bundle = build_bundle(p.loo, p, KernelSpec("matern32", 8.0), design, measure)
    assert len(calls) == 1
    from looise.estimators import ise_blp, ise_blup, trend_corrected_ise

    ise_blp(bundle, eps)
    ise_blup(bundle, eps)
    trend_corrected_ise(bundle, np.linspace(1.0, 2.0, 12))
    assert len(calls) == 1
    kernels = [KernelSpec("matern32", 8.0), KernelSpec("gaussian", 5.0)]
    mixture_bundle(kernels, [0.4, 0.6], p.loo, p, design, measure)
    assert calls[1:] == kernels


def test_bundles_sharing_a_dict_share_one_kernel_record(monkeypatch):
    # as in table2: the bundles of k predictors on one design under one assumed
    # kernel build K_e once and factorize it once for all their trend corrections
    import looise.moments as moments
    from looise import numerics
    from looise.estimators import trend_corrected_ise

    design = random_design(2, 12, seed=25)
    measure = small_measure(2, 64, seed=26)
    kern = KernelSpec("matern32", 8.0)
    y = np.sin(5.0 * design.points.sum(axis=1)) + 2.0
    preds = [SimpleKriging(KernelSpec("matern52", t), design) for t in (4.0, 6.0, 9.0)]
    alone = [trend_corrected_ise(build_bundle(p.loo, p, kern, design, measure), y).value
             for p in preds]
    built, factored = [], []
    build, factorize = moments.kernel_matrix, numerics.spd_factorize
    monkeypatch.setattr(moments, "kernel_matrix",
                        lambda spec, X: built.append(spec) or build(spec, X))
    monkeypatch.setattr(numerics, "spd_factorize", lambda A: factored.append(A) or factorize(A))
    shared = {}
    bundles = [build_bundle(p.loo, p, kern, design, measure, shared=shared) for p in preds]
    values = [trend_corrected_ise(b, y).value for b in bundles]
    K = bundles[0].components[0].record.K
    assert built == [kern]
    assert all(b.components[0].record.K is K for b in bundles)
    assert sum(A is K for A in factored) == 1
    assert values == alone


def test_a_mixture_bundle_factorizes_its_covariance_once(monkeypatch):
    # blp and blup of a constant-trend mixture estimate centre the data under
    # one record of sum_k nu_k K_k, built and factorized on first use
    from looise import numerics
    from looise.estimators import trend_corrected_ise

    design = random_design(2, 12, seed=27)
    measure = small_measure(2, 64, seed=28)
    p = SimpleKriging(KernelSpec("matern52", 6.0), design)
    y = np.cos(4.0 * design.points.sum(axis=1)) + 3.0
    kernels = [KernelSpec("matern32", 8.0), KernelSpec("gaussian", 5.0)]
    bundle = mixture_bundle(kernels, [0.3, 0.7], p.loo, p, design, measure)
    factored, factorize = [], numerics.spd_factorize
    monkeypatch.setattr(numerics, "spd_factorize", lambda A: factored.append(A) or factorize(A))
    for est in ("blp", "blup"):
        trend_corrected_ise(bundle, y, est)
    sigma = bundle.covariance.K
    assert np.array_equal(sigma, 0.3 * bundle.components[0].record.K
                          + 0.7 * bundle.components[1].record.K)
    assert len(factored) == 1 and factored[0] is sigma


def test_sum_to_one_defect_is_flat_limit_J0():
    design = random_design(2, 10, seed=23)
    measure = small_measure(2, 5000, seed=24)
    kern = KernelSpec("matern32", 7.0)
    for p in (OrdinaryKriging(KernelSpec("matern52", 5.0), design),
              SimpleKriging(KernelSpec("matern52", 5.0), design)):
        bundle = build_bundle(p.loo, p, kern, design, measure)
        J0 = flat_limit_diagnostics(p.loo, p, measure)["J0"]
        assert bundle.sum_to_one_defect == J0


def test_array_weights_lookup_matches_signed_zero():
    design = random_design(1, 4, seed=25)
    measure = uniform_measure(np.array([[0.0], [0.5], [1.0]]))
    p = SimpleKriging(KernelSpec("matern52", 3.0), design)
    W = p.weights_matrix(measure.points)
    bundle = build_bundle(p.loo, W, KernelSpec("matern32", 4.0), design, measure)
    c_neg, rho_neg = pointwise_c_rho(bundle, [[-0.0]])
    c_pos, rho_pos = pointwise_c_rho(bundle, [[0.0]])
    assert np.array_equal(c_neg, c_pos) and np.array_equal(rho_neg, rho_pos)


def test_array_weights_lookup_follows_the_coincidence_rule():
    design = random_design(1, 4, seed=25)
    measure = uniform_measure(np.array([[0.0], [0.5], [1.0]]))
    p = SimpleKriging(KernelSpec("matern52", 3.0), design)
    W = p.weights_matrix(measure.points)
    bundle = build_bundle(p.loo, W, KernelSpec("matern32", 4.0), design, measure)
    assert 0.5 + 1e-16 != 0.5
    assert np.array_equal(bundle.weights.at([[0.5 + 1e-16], [-0.0]]), W[[1, 0]])
    with pytest.raises(DomainViolation, match="is 1e-12 from the nearest known point"):
        pointwise_c_rho(bundle, [[0.5 + 1e-12]])


def test_one_support_pass_per_bundle_and_residual_vector(monkeypatch):
    # b, J, the defect and the clamped blp+/blup+ of one eps share one pass
    # over the support; only a new eps costs another
    import looise.moments as moments
    from looise.estimators import ise_blp, ise_blup, trend_corrected_ise

    rows = []
    draw = moments.WeightSource.block

    def counting(self, lo, hi):
        rows.append(hi - lo)
        return draw(self, lo, hi)

    design = random_design(2, 12, seed=31)
    N = 3 * moments.BLOCK
    measure = small_measure(2, N, seed=32)
    p = SimpleKriging(KernelSpec("matern52", 6.0), design)
    kern = KernelSpec("matern32", 8.0)
    y = np.linspace(-1.0, 1.0, 12) + 0.5
    eps = p.loo_residuals(y)
    monkeypatch.setattr(moments.WeightSource, "block", counting)
    bundle = build_bundle(p.loo, p, kern, design, measure)
    ise_blp(bundle, eps)
    ise_blup(bundle, eps)
    assert bundle.J > 0.0 and bundle.sum_to_one_defect > 0.0
    assert sum(rows) == N
    ise_blp(bundle, eps, clamp=False)
    ise_blup(bundle, eps, clamp=False)
    assert sum(rows) == N
    ise_blup(bundle, 2.0 * eps)
    ise_blp(bundle, 2.0 * eps)
    assert sum(rows) == 2 * N
    rows.clear()
    fresh = build_bundle(p.loo, p, kern, design, measure)
    trend_corrected_ise(fresh, y)
    trend_corrected_ise(fresh, y, estimator="blup")
    assert sum(rows) == N


def test_bundle_shared_by_threads_makes_one_pass(monkeypatch):
    import sys
    import threading

    import looise.moments as moments

    rows = []
    draw = moments.WeightSource.block

    def counting(self, lo, hi):
        rows.append(hi - lo)
        return draw(self, lo, hi)

    design = random_design(2, 10, seed=33)
    N = 2 * moments.BLOCK
    measure = small_measure(2, N, seed=34)
    p = SimpleKriging(KernelSpec("matern52", 6.0), design)
    bundle = build_bundle(p.loo, p, KernelSpec("matern32", 8.0), design, measure)
    eps_sq = p.loo_residuals(np.linspace(-1.0, 1.0, 10)) ** 2
    monkeypatch.setattr(moments.WeightSource, "block", counting)
    results = []

    def read():
        results.append((bundle.clamped_integrals(eps_sq), bundle.J, bundle.b.tobytes()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6 and all(r == results[0] for r in results)
    assert sum(rows) == N


def _vn_full_loop(kernel, W, design, measure, block):
    """V_n as a loop over row blocks against every column, each block pair twice."""
    mu, pts = measure.weights, measure.points
    C = cross_matrix(kernel, design.points, pts)
    P = W @ kernel_matrix(kernel, design.points)
    total = 0.0
    for lo in range(0, measure.size, block):
        hi = min(lo + block, measure.size)
        Kxx = cross_matrix(kernel, pts, pts[lo:hi])
        if kernel.nugget:
            cols = np.arange(lo, hi)
            Kxx[cols - lo, cols] += kernel.nugget
        cross = Kxx - W[lo:hi] @ C.T - C[lo:hi] @ W.T + P[lo:hi] @ W.T
        total += float(mu[lo:hi] @ (cross * cross) @ mu)
    return total


def test_vn_over_block_pairs_equals_the_full_block_loop(monkeypatch):
    import looise.moments as moments

    block = 7
    monkeypatch.setattr(moments, "VN_BLOCK", block)
    design = random_design(2, 9, seed=41)
    measure = small_measure(2, 40, seed=42)  # 40 = 5 * 7 + 5: the last block is partial
    p = SimpleKriging(KernelSpec("matern52", 5.0), design)
    W = p.weights_matrix(measure.points)
    kernels = [KernelSpec("matern32", 6.0, nugget=0.05), KernelSpec("gaussian", 12.0)]
    singles = [build_bundle(p.loo, p, k, design, measure, compute_Vn=True) for k in kernels]
    full = [_vn_full_loop(k, W, design, measure, block) for k in kernels]
    for bundle, want in zip(singles, full):
        assert np.isclose(bundle.V, want, rtol=1e-12, atol=0.0)
    nu = np.array([0.3, 0.7])
    mix = mixture_bundle(kernels, nu, p.loo, p, design, measure, compute_Vn=True)
    J = np.array([b.J for b in singles])
    want = nu @ full + 0.5 * nu @ (J - nu @ J) ** 2  # E[ISE^2] = sum_k nu_k (J_k^2 + 2 V_k)
    assert np.isclose(mix.V, want, rtol=1e-12, atol=0.0)


def test_a_shared_cross_dict_builds_each_kernel_block_once(monkeypatch):
    import looise.moments as moments

    calls = []
    build = moments.cross_matrix

    def counting(kernel, X, Xnew):
        calls.append(kernel)
        return build(kernel, X, Xnew)

    monkeypatch.setattr(moments, "BLOCK", 16)
    design = random_design(2, 8, seed=51)
    measure = small_measure(2, 40, seed=52)  # three blocks, the last one partial
    kern = KernelSpec("matern32", 7.0)
    preds = [SimpleKriging(KernelSpec("matern52", t), design) for t in (4.0, 9.0)]
    W = [p.weights_matrix(measure.points) for p in preds]  # array-backed: no cross_matrix
    bundles = [build_bundle(p.loo, w, kern, design, measure) for p, w in zip(preds, W)]
    monkeypatch.setattr(moments, "cross_matrix", counting)
    shared = {}
    for bundle in bundles:  # two walks, one dict
        moments.support_pass([(bundle, None)], shared=shared)
    assert calls == [kern] * 3
    fresh = [build_bundle(p.loo, w, kern, design, measure) for p, w in zip(preds, W)]
    moments.support_pass([(bundle, None) for bundle in fresh])
    assert len(calls) == 3 + 2 * 3
    for a, b in zip(bundles, fresh):
        assert a.b.tobytes() == b.b.tobytes() and a.J == b.J


def test_overlapping_walks_from_threads_make_one_pass(monkeypatch):
    import sys
    import threading

    import looise.moments as moments

    rows = []
    draw = moments.WeightSource.block

    def counting(self, lo, hi):
        rows.append(hi - lo)
        return draw(self, lo, hi)

    design = random_design(2, 10, seed=53)
    measure = small_measure(2, 64, seed=54)
    p = SimpleKriging(KernelSpec("matern52", 6.0), design)
    weights = moments.WeightSource(p, measure, design.n)
    bundles = [build_bundle(p.loo, weights, KernelSpec("matern32", t), design, measure)
               for t in (4.0, 8.0, 16.0)]
    monkeypatch.setattr(moments.WeightSource, "block", counting)
    orders = [bundles, bundles[::-1], bundles[1:] + bundles[:1]] * 2  # opposite lock orders
    errors = []

    def walk(order):
        try:
            moments.support_pass([(b, None) for b in order])
        except Exception as exc:  # reported below; a thread swallows it otherwise
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(order,)) for order in orders]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert sum(rows) == measure.size  # the first walk fills all three bundles
    assert all(b._moments is not None for b in bundles)


def test_a_weight_source_on_another_measure_is_rejected():
    import looise.moments as moments
    from looise.errors import DimensionMismatch

    design = random_design(1, 5, seed=55)
    p = SimpleKriging(KernelSpec("matern52", 6.0), design)
    weights = moments.WeightSource(p, small_measure(1, 32, seed=56), design.n)
    with pytest.raises(DimensionMismatch, match="another measure"):
        build_bundle(p.loo, weights, KernelSpec("matern32", 8.0), design,
                     small_measure(1, 32, seed=57))


class _CountingPool:
    """Stands in for ThreadPoolExecutor and records the size of every pool started."""

    def __init__(self, monkeypatch):
        import concurrent.futures

        self.sizes = []
        base = concurrent.futures.ThreadPoolExecutor
        sizes = self.sizes

        class Counting(base):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)


def _walk_everything(moments, p, design, measure):
    """Every kind of walk job, and V_n, on fresh bundles; all their results."""
    weights = moments.WeightSource(p, measure, design.n)
    kernels = [KernelSpec("matern32", 6.0, nugget=0.05), KernelSpec("gaussian", 12.0)]
    single = build_bundle(p.loo, weights, kernels[0], design, measure, compute_Vn=True)
    mix = mixture_bundle(kernels, [0.3, 0.7], p.loo, weights, design, measure, compute_Vn=True)
    limit = independent_limit_bundle(p.loo, weights, design, measure)
    y = np.sin(3.0 * design.points).sum(axis=1)
    eps_sq = p.loo_residuals(y) ** 2
    f = np.sin(3.0 * measure.points).sum(axis=1)
    sums = moments.support_pass([(b, eps_sq) for b in (single, mix, limit)],
                                [(f, weights, y)], shared={})  # workers share the dict
    out = [sums]
    for b in (single, mix, limit):
        out += [b.b.tobytes(), b.J, b.sum_to_one_defect, b.clamped_integrals(eps_sq), b.V]
    W = p.weights_matrix(measure.points)
    out += [moments._vn_component(comp, W, design, measure) for comp in mix.components]
    return out


def test_the_worker_count_moves_no_bit(monkeypatch):
    import sys

    import looise.moments as moments
    from looise import numerics

    monkeypatch.setattr(moments, "BLOCK", 16)
    monkeypatch.setattr(moments, "VN_BLOCK", 16)
    design = random_design(2, 10, seed=61)
    measure = small_measure(2, 100, seed=62)  # seven blocks, the last one partial
    p = SimpleKriging(KernelSpec("matern52", 6.0), design)
    pools = _CountingPool(monkeypatch)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(numerics, "default_workers", lambda: workers)
            results.append(_walk_everything(moments, p, design, measure))
            assert set(pools.sizes) == ({workers} if workers > 1 else set())
            pools.sizes.clear()
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results[1:])


def test_a_walk_inside_a_pool_worker_starts_no_thread(monkeypatch):
    import looise.moments as moments
    from looise import numerics

    monkeypatch.setattr(moments, "BLOCK", 16)
    design = random_design(2, 10, seed=63)
    measure = small_measure(2, 64, seed=64)
    p = SimpleKriging(KernelSpec("matern52", 6.0), design)
    thetas = (4.0, 8.0)

    def walk(theta):
        bundle = build_bundle(p.loo, p, KernelSpec("matern32", theta), design, measure)
        return bundle.b.tobytes(), bundle.J

    monkeypatch.setattr(numerics, "default_workers", lambda: 2)
    pools = _CountingPool(monkeypatch)
    inline = [walk(theta) for theta in thetas]
    assert pools.sizes == [2, 2]  # on the calling thread each walk uses the pool
    pools.sizes.clear()
    assert numerics.map_ordered(walk, thetas, 2) == inline
    assert pools.sizes == [2]  # the outer map's pool; its workers walk inline


def test_vn_draws_its_weights_through_the_block_counter(monkeypatch):
    import looise.moments as moments

    rows = []
    draw = moments.WeightSource.block

    def counting(self, lo, hi):
        rows.append(hi - lo)
        return draw(self, lo, hi)

    monkeypatch.setattr(moments, "BLOCK", 16)
    design = random_design(2, 8, seed=65)
    measure = small_measure(2, 40, seed=66)
    p = SimpleKriging(KernelSpec("matern52", 6.0), design)
    monkeypatch.setattr(moments.WeightSource, "block", counting)
    bundle = build_bundle(p.loo, p, KernelSpec("matern32", 8.0), design, measure,
                          compute_Vn=True)
    assert sum(rows) == measure.size  # V_n's draw of the whole support
    bundle.J
    assert sum(rows) == 2 * measure.size


@pytest.mark.parametrize("N", [1024, 4096])
def test_vn_scratch_does_not_grow_with_the_support(monkeypatch, N):
    import tracemalloc

    import looise.moments as moments
    from looise import numerics

    block, workers, n = 64, 2, 12
    monkeypatch.setattr(moments, "VN_BLOCK", block)
    monkeypatch.setattr(numerics, "default_workers", lambda: workers)
    design = random_design(2, n, seed=71)
    measure = small_measure(2, N, seed=72)
    p = SimpleKriging(KernelSpec("matern52", 6.0), design)
    W = p.weights_matrix(measure.points)  # array-backed: its draws allocate nothing
    R = p.loo
    tracemalloc.start()
    try:
        build_bundle(R, W, KernelSpec("matern32", 8.0, nugget=0.05), design, measure,
                     compute_Vn=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # V_n's copy of W, C and T hold N x n doubles each; each worker adds a few
    # block x block tiles and its row of at most N sums
    assert peak - 3 * N * n * 8 <= workers * (8 * block**2 + N) * 8
