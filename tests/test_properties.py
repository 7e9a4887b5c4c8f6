"""Property tests over random inputs: invariants the maths guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_design, small_measure
from reference_oracle import loo_residuals_bruteforce
from looise import numerics
from looise.designs import Design, IntegrationMeasure, _loo_criterion
from looise.errors import DimensionMismatch, LooiseError, RankDeficient
from looise.estimators import ise_blp, ise_blup, ise_loo, trend_corrected_ise
from looise.kernels import FAMILIES, KernelSpec, cross_matrix, kernel_matrix
from looise import moments
from looise.moments import (
    WeightSource,
    build_bundle,
    independent_limit_bundle,
    mixture_bundle,
    support_pass,
)
from looise.predictors import (
    COND_BOUND_TRUST,
    RANK_DEFICIENT_COND,
    BayesPolynomial,
    EmpiricalMean,
    OrdinaryKriging,
    SimpleKriging,
    TableWeights,
    poly_basis,
    tensor_basis,
)

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


@st.composite
def bundles(draw):
    """A simple-kriging predictor and a single-kernel or two-kernel mixture
    bundle on a small scrambled-Sobol design and support."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(4, 8))
    seed = draw(st.integers(0, 10_000))
    design = random_design(d, n, seed=seed)
    measure = small_measure(d, 32, seed=seed + 1)
    pred = SimpleKriging(KernelSpec("matern52", draw(st.floats(2.0, 20.0))), design)
    thetas = st.floats(3.0, 30.0)
    if draw(st.booleans()):
        bundle = build_bundle(pred, KernelSpec("matern32", draw(thetas)), measure)
    else:
        nu = draw(st.floats(0.05, 0.95))
        kernels = [KernelSpec("matern32", draw(thetas)), KernelSpec("gaussian", draw(thetas))]
        bundle = mixture_bundle(pred, kernels, [nu, 1.0 - nu], measure)
    return bundle


def _estimates(bundle, y):
    return [trend_corrected_ise(bundle, y, estimator, clamp).value
            for estimator in ("blp", "blup") for clamp in (True, False)]


@PROPERTY_SETTINGS
@given(bundle=bundles(), data=st.data(), c=st.floats(0.1, 10.0))
def test_trend_corrected_estimates_scale_with_the_square(bundle, data, c):
    y = np.asarray(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=bundle.n,
                                      max_size=bundle.n)))
    for plain, scaled in zip(_estimates(bundle, y), _estimates(bundle, c * y)):
        assert np.isclose(scaled, c * c * plain, rtol=1e-12, atol=0.0)


@PROPERTY_SETTINGS
@given(bundle=bundles(), c=st.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-3))
def test_constant_data_is_all_trend(bundle, c):
    target = c * c * bundle.sum_to_one_defect
    assert target > 0.0
    for estimator in ("blp", "blup"):
        for clamp in (True, False):
            est = trend_corrected_ise(bundle, np.full(bundle.n, c), estimator, clamp)
            assert np.isclose(est.trend_amount, target, rtol=1e-12, atol=0.0)  # tau = c
            assert np.isclose(est.value, target, rtol=1e-12, atol=0.0)


# Matern kernels at ranges in the package's clamp interval [5, 50]: their
# matrices stay within a condition number of about 1e7 at n <= 30, so a
# relative tolerance of 1e-9 is met by rounding alone. The smooth families at
# small ranges reach 1e18 in one dimension, where the factorizations, and
# whether S factorizes at all, depend on the row order.
MATERN = ("matern12", "matern32", "matern52")
THETAS = st.floats(5.0, 50.0)


@st.composite
def problems(draw):
    """Data on a scrambled-Sobol design (n <= 30) with a simple-kriging
    predictor, an assumed estimator kernel and a support of N <= 256 points."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(3, 30))
    seed = draw(st.integers(0, 10_000))
    design = random_design(d, n, seed=seed)
    measure = small_measure(d, draw(st.sampled_from([32, 64, 128, 256])), seed=seed + 1)
    kern_p = KernelSpec(draw(st.sampled_from(MATERN)), draw(THETAS))
    kern_e = KernelSpec(draw(st.sampled_from(MATERN)), draw(THETAS))
    y = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    return design, measure, kern_p, kern_e, y


def _three_estimates(design, measure, kern_p, kern_e, y):
    """ise_loo, then ise_blp and ise_blup clamped and unclamped; or the type
    of the package error that computing them raised."""
    try:
        pred = SimpleKriging(kern_p, design)
        eps = pred.loo_residuals(y)
        bundle = build_bundle(pred, kern_e, measure)
        return np.array([ise_loo(eps).value] + [
            est(bundle, eps, clamp=clamp).value
            for est in (ise_blp, ise_blup) for clamp in (True, False)])
    except LooiseError as exc:
        return type(exc)


def _assert_same(got, want, rtol):
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


@PROPERTY_SETTINGS
@given(problem=problems(), c=st.floats(0.1, 10.0))
def test_estimates_scale_with_the_square_of_the_data(problem, c):
    design, measure, kern_p, kern_e, y = problem
    plain = _three_estimates(design, measure, kern_p, kern_e, y)
    scaled = _three_estimates(design, measure, kern_p, kern_e, c * y)
    _assert_same(scaled, plain if isinstance(plain, type) else c * c * plain, rtol=1e-10)


@PROPERTY_SETTINGS
@given(problem=problems(), data=st.data())
def test_estimates_do_not_depend_on_the_order_of_the_design(problem, data):
    design, measure, kern_p, kern_e, y = problem
    perm = np.asarray(data.draw(st.permutations(range(design.n))))
    moved = Design(points=design.points[perm])
    _assert_same(_three_estimates(moved, measure, kern_p, kern_e, y[perm]),
                 _three_estimates(design, measure, kern_p, kern_e, y), rtol=1e-9)


def _measure_integrals(pred, eps, kern_e, measure):
    """J and b of a bundle, then ise_blp and ise_blup clamped and unclamped; or
    the type of the package error that computing them raised."""
    try:
        bundle = build_bundle(pred, kern_e, measure)
        return np.array([bundle.J, *bundle.b] + [
            est(bundle, eps, clamp=clamp).value
            for est in (ise_blp, ise_blup) for clamp in (True, False)])
    except LooiseError as exc:
        return type(exc)


@PROPERTY_SETTINGS
@given(problem=problems(), data=st.data())
def test_splitting_a_support_point_in_two_halves_changes_no_estimate(problem, data):
    # the measure puts the same mass on the same point either way, so the
    # integrals move by rounding only; over 1,500 draws the largest relative
    # change was 7.4e-13, so the bound is 1e-10
    design, measure, kern_p, kern_e, y = problem
    k = data.draw(st.integers(0, measure.size - 1))
    weights = np.insert(measure.weights, k, 0.5 * measure.weights[k])
    weights[k + 1] = weights[k]
    split = IntegrationMeasure(np.insert(measure.points, k, measure.points[k], axis=0), weights)
    pred = SimpleKriging(kern_p, design)
    eps = pred.loo_residuals(y)
    _assert_same(_measure_integrals(pred, eps, kern_e, split),
                 _measure_integrals(pred, eps, kern_e, measure), rtol=1e-10)


# The cached-inverse routes agree with the solve-based ones to rounding, which
# grows with the condition number kappa(K): with BayesPolynomial's noise of
# 0.05, kappa(K) reaches about 6e5, and the weights differ by up to 4e-11 of
# max|W|. The bound is C_EPS * eps * kappa(K); over 1,500 random draws of
# `problems` the largest observed multiple of eps * kappa(K) was 3.6.
C_EPS = 16.0
EPS = np.finfo(float).eps


def _predictors(design, kern):
    return [SimpleKriging(kern, design), OrdinaryKriging(kern, design),
            BayesPolynomial(*poly_basis(design.d, 12, c=10.0), 0.05, design)]


def _solved_weights(pred, X):
    """Weights by a triangular solve per point, and the predictor's K."""
    if isinstance(pred, BayesPolynomial):
        phi = tensor_basis(pred.design.points, pred.indices)
        K = (phi * pred.prior_diag) @ phi.T + pred.noise_var * np.eye(pred.n)
        C = (tensor_basis(X, pred.indices) * pred.prior_diag) @ phi.T
    else:
        K = kernel_matrix(pred.kernel, pred.design.points)
        C = cross_matrix(pred.kernel, pred.design.points, X)
    F = numerics.spd_factorize(K)
    W = numerics.solve(F, C.T).T
    if isinstance(pred, OrdinaryKriging):
        a = numerics.solve(F, np.ones(pred.n))
        W = W + np.outer((1.0 - C @ a) / float(np.ones(pred.n) @ a), a)
    return W, K


@PROPERTY_SETTINGS
@given(problem=problems())
def test_weights_by_the_cached_inverse_match_the_solve(problem):
    design, measure, kern_p, _, _ = problem
    for pred in _predictors(design, kern_p):
        W = pred.weights_matrix(measure.points)
        want, K = _solved_weights(pred, measure.points)
        bound = C_EPS * EPS * np.linalg.cond(K) * np.max(np.abs(want))
        assert np.max(np.abs(W - want)) <= bound


def _full_inverse_criterion(K, y, mean_mode):
    record = numerics.DesignKernel(K)
    n = len(y)
    M = record.inverse if mean_mode == "zero" else numerics.bordered_inverse(record)[:n, :n]
    resid = (M @ y) / np.diag(M)
    return float(np.mean(resid * resid))


@PROPERTY_SETTINGS
@given(problem=problems())
def test_loo_criterion_matches_the_full_inverse(problem):
    # the bound is relative to the criterion plus mean(y^2): for constant y
    # and a constant mean, the residuals cancel to zero and both routes
    # return rounding noise, which no bound relative to the criterion holds
    design, _, _, kern_e, y = problem
    K = kernel_matrix(kern_e, design.points)
    for mean_mode in ("zero", "constant"):
        want = _full_inverse_criterion(K, y, mean_mode)
        bound = C_EPS * EPS * np.linalg.cond(K) * (want + np.mean(y * y))
        assert abs(_loo_criterion(numerics.DesignKernel(K), y, mean_mode) - want) <= bound


@PROPERTY_SETTINGS
@given(d=st.integers(1, 2), n=st.integers(3, 15), seed=st.integers(0, 10_000),
       family=st.sampled_from(MATERN), theta=THETAS, data=st.data())
def test_closed_form_loo_matches_refits(d, n, seed, family, theta, data):
    design = random_design(d, n, seed=seed)
    y = np.asarray(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    for pred in _predictors(design, KernelSpec(family, theta)) + [EmpiricalMean(design)]:
        brute = loo_residuals_bruteforce(pred, y)
        assert np.max(np.abs(pred.loo_residuals(y) - brute)) < 1e-8


# a few ranges, so that bundles of one walk share kernels
WALK_THETAS = st.sampled_from([4.0, 9.0, 25.0])


@st.composite
def walks(draw):
    """A batch of walk jobs of one predictor over one support: bundles under one
    kernel, a two-kernel mixture or the independent limit, of a kriging predictor
    or its weight table, with or without residuals, the single and mixture bundles
    with or without V_n (whose draw of the support the walk then reads), and
    squared-error sums; the walk shares its cross-correlations between bundles or
    not. BLOCK, BLOCK_ENTRIES and n are drawn so that block_rows(n) ranges from
    1 to 9 rows, and the support does not fill its last block unless that block
    holds one row."""
    block, entries = draw(st.integers(3, 9)), draw(st.integers(16, 128))
    n = draw(st.integers(4, 40))
    rows = block
    while rows > 1 and rows * n > entries:  # block_rows(n) under the drawn BLOCK and BLOCK_ENTRIES
        rows //= 2
    N = draw(st.integers(10, 40).filter(lambda N: rows == 1 or N % rows))
    jobs = draw(st.lists(st.tuples(st.sampled_from(["single", "mixture", "limit"]),
                                   WALK_THETAS, WALK_THETAS, st.floats(0.05, 0.95),
                                   st.booleans(), st.booleans()), min_size=1, max_size=6))
    return dict(d=draw(st.integers(1, 2)), seed=draw(st.integers(0, 10_000)), block=block,
                entries=entries, n=n, rows=rows, N=N, theta=draw(st.floats(2.0, 20.0)),
                table=draw(st.booleans()), jobs=jobs, errors=draw(st.integers(0, 3)),
                shared=draw(st.booleans()))


def _walk_jobs(spec):
    """Fresh bundles and squared-error sums for the spec, built the same way each
    call, and a fresh bundle of the predictor's twin (its weight table, or the
    kriging predictor behind the table) over the same support."""
    measure = small_measure(spec["d"], spec["N"], seed=spec["seed"] + 1)
    design = random_design(spec["d"], spec["n"], seed=spec["seed"] + 2)
    pred = SimpleKriging(KernelSpec("matern52", spec["theta"]), design)
    table = TableWeights(measure.points, pred.weights_matrix(measure.points), design,
                         loo_matrix=pred.loo.matrix)
    source, twin = (table, pred) if spec["table"] else (pred, table)
    y = np.sin(7.0 * design.points.sum(axis=1))
    eps_sq = pred.loo_residuals(y) ** 2
    jobs = []
    for kind, t1, t2, nu, with_eps, with_vn in spec["jobs"]:
        if kind == "single":
            bundle = build_bundle(source, KernelSpec("matern32", t1), measure, compute_Vn=with_vn)
        elif kind == "mixture":
            kernels = [KernelSpec("matern32", t1), KernelSpec("gaussian", t2)]
            bundle = mixture_bundle(source, kernels, [nu, 1.0 - nu], measure, compute_Vn=with_vn)
        else:
            bundle = independent_limit_bundle(source, measure)
        jobs.append((bundle, eps_sq if with_eps else None))
    errors = [(np.cos((5.0 + k) * measure.points.sum(axis=1)), WeightSource(source, measure), y)
              for k in range(spec["errors"])]
    return jobs, errors, (independent_limit_bundle(twin, measure), None)


def _walk_results(jobs):
    return [(b._moments[0].tobytes(), b._moments[1], b._moments[2],
             None if eps_sq is None else b._clamped[eps_sq.tobytes()])
            for b, eps_sq in jobs]


@PROPERTY_SETTINGS
@given(spec=walks())
def test_a_batched_walk_equals_one_bundle_walks_bit_for_bit(spec):
    draws = []
    block = WeightSource.block

    def counting(self, lo, hi, *dist):
        draws.append((lo, hi))
        return block(self, lo, hi, *dist)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "BLOCK", spec["block"])
        mp.setattr(moments, "BLOCK_ENTRIES", spec["entries"])
        mp.setattr(moments, "VN_BLOCK", spec["block"])  # V_n's tiles keep a column
        assert moments.block_rows(spec["n"]) == spec["rows"]
        jobs, errors, _ = _walk_jobs(spec)  # V_n's draws are not the walk's
        mp.setattr(WeightSource, "block", counting)
        batched = support_pass(jobs, errors, shared={} if spec["shared"] else None)
        # the predictor draws every support row once, in blocks of block_rows(n) rows
        assert sorted(draws) == [(lo, min(lo + spec["rows"], spec["N"]))
                         for lo in range(0, spec["N"], spec["rows"])]
        alone_jobs, alone_errors, _ = _walk_jobs(spec)
        for job in alone_jobs:
            support_pass([job])
        alone = [support_pass([], [job])[0] for job in alone_errors]
        # a job of the twin predictor in the batch: refused before any block
        fresh_jobs, fresh_errors, twin = _walk_jobs(spec)
        draws.clear()
        with pytest.raises(DimensionMismatch, match="one predictor"):
            support_pass(fresh_jobs + [twin], fresh_errors)
        assert draws == []
    assert batched == alone
    assert _walk_results(jobs) == _walk_results(alone_jobs)


@st.composite
def projected_walks(draw):
    """The inputs of one walk: a design, a support that does not fill its last
    block of `block` rows, Matern kernels for the predictor and for one or two
    assumed components, a mixture weight and data."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 10_000))
    block = draw(st.integers(3, 9))
    N = draw(st.integers(10, 60).filter(lambda N: N % block))
    kernels = [KernelSpec(draw(st.sampled_from(MATERN)), draw(THETAS)) for _ in range(3)]
    nu = draw(st.floats(0.05, 0.95))
    y = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    return dict(d=d, n=n, seed=seed, block=block, N=N, kernels=kernels, nu=nu, y=y)


# Over 600 random draws of these inputs the walk and the full rows agreed to
# 1.3e-15 relative at worst (b elementwise, J, blp+ and blup+).
PROJECTION_RTOL = 1e-12


@pytest.mark.parametrize("predictor", [SimpleKriging, OrdinaryKriging])
@pytest.mark.parametrize("kind", ["single", "mixture", "limit"])
@PROPERTY_SETTINGS
@given(spec=projected_walks())
def test_the_projected_walk_matches_sums_over_full_c_rows(predictor, kind, spec):
    design = random_design(spec["d"], spec["n"], seed=spec["seed"])
    measure = small_measure(spec["d"], spec["N"], seed=spec["seed"] + 1)
    kern_p, kern_1, kern_2 = spec["kernels"]
    pred = predictor(kern_p, design)
    if kind == "single":
        bundle = build_bundle(pred, kern_1, measure)
    elif kind == "mixture":
        bundle = mixture_bundle(pred, [kern_1, kern_2], [spec["nu"], 1.0 - spec["nu"]], measure)
    else:
        bundle = independent_limit_bundle(pred, measure)
    eps_sq = pred.loo_residuals(spec["y"]) ** 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "BLOCK", spec["block"])
        support_pass([(bundle, eps_sq)])
    mu = measure.weights
    c_rows, rho = moments.pointwise_c_rho(bundle, measure.points)
    g = bundle.solve_S(eps_sq)
    h, q = bundle.constraint()
    vals = c_rows @ g
    blp = float(mu @ np.maximum(vals, 0.0))
    blup = float(mu @ np.maximum(vals + (rho - c_rows @ h) * (bundle.u @ g / q), 0.0))
    np.testing.assert_allclose(bundle.b, mu @ c_rows, rtol=PROJECTION_RTOL, atol=0.0)
    np.testing.assert_allclose([bundle.J, *bundle.clamped_integrals(eps_sq)],
                               [float(mu @ rho), blp, blup], rtol=PROJECTION_RTOL, atol=0.0)


@st.composite
def vn_tilings(draw):
    """A design, a support of N points, a Matern predictor and assumed kernel,
    with or without a nugget, and two V_n block sizes that N fills neither;
    the test runs each with tiles of 1, 3 and VN_BLOCK columns."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 10_000))
    blocks = draw(st.lists(st.integers(3, 16), min_size=2, max_size=2, unique=True))
    N = draw(st.integers(20, 90).filter(lambda N: all(N % b for b in blocks)))
    nugget = draw(st.sampled_from([0.0, 0.01, 0.2]))
    kernels = [KernelSpec(draw(st.sampled_from(MATERN)), draw(THETAS)) for _ in range(2)]
    return dict(d=d, n=n, seed=seed, blocks=blocks, N=N, kern_p=kernels[0],
                kern_e=KernelSpec(kernels[1].family, kernels[1].theta, nugget))


@PROPERTY_SETTINGS
@given(spec=vn_tilings())
def test_vn_does_not_depend_on_the_tiling(spec):
    design = random_design(spec["d"], spec["n"], seed=spec["seed"])
    measure = small_measure(spec["d"], spec["N"], seed=spec["seed"] + 1)
    pred = SimpleKriging(spec["kern_p"], design)
    W = pred.weights_matrix(measure.points)
    record = moments.DesignKernel(kernel_matrix(spec["kern_e"], design.points))
    comp = moments.Component(nu=1.0, kernel=spec["kern_e"], record=record, u=None)
    tiled = []
    for block in spec["blocks"]:
        for width in (1, 3, block):  # columns per tile: min(VN_BLOCK, BLOCK_ENTRIES // VN_BLOCK)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(moments, "VN_BLOCK", block)
                mp.setattr(moments, "BLOCK_ENTRIES", block * width)
                tiled.append(moments._vn_component(comp, W, design, measure))
    # the dense rho^2(x, x') on the whole support, nugget on its diagonal
    kern, mu = spec["kern_e"], measure.weights
    C = cross_matrix(kern, design.points, measure.points)
    rho2 = cross_matrix(kern, measure.points, measure.points) + kern.nugget * np.eye(spec["N"])
    rho2 += -W @ C.T - C @ W.T + W @ record.K @ W.T
    dense = (float(mu @ (rho2 * rho2) @ mu), float(mu @ np.diagonal(rho2)))
    np.testing.assert_allclose(tiled, [dense] * len(tiled), rtol=1e-12, atol=0.0)


@st.composite
def prefix_walks(draw):
    """A kriging predictor of one of several sizes n (so several block sizes),
    a single or mixture bundle, one to three residual vectors and an unshifted
    or shifted net of N = 2^k points, with 2^k at least two of the walk's blocks."""
    n = draw(st.sampled_from([40, 100, 129, 200, 300]))
    rows = moments.block_rows(n)
    k = draw(st.integers(rows.bit_length(), rows.bit_length() + 3))  # 2^k >= 2 rows
    return dict(d=draw(st.integers(2, 4)), n=n, k=k, seed=draw(st.integers(0, 10_000)),
                shifted=draw(st.booleans()), predictor=draw(st.sampled_from(
                    [SimpleKriging, OrdinaryKriging])), theta_p=draw(st.floats(5.0, 20.0)),
                thetas=[draw(WALK_THETAS), draw(WALK_THETAS)], nu=draw(st.floats(0.05, 0.95)),
                mixture=draw(st.booleans()), residuals=draw(st.integers(1, 3)))


def _prefix_sums(blocks):
    """(b, J, defect, [(blp+, blup+) per residual vector]) of `blocks`, added up as finish does."""
    defect, b, J = (sum(col) for col in zip(*(known for known, _ in blocks)))
    pairs = zip(*(clamped for _, clamped in blocks))
    return b, J, defect, [tuple(sum(col) for col in zip(*pair)) for pair in pairs]


@PROPERTY_SETTINGS
@given(spec=prefix_walks())
def test_twice_the_first_half_of_a_walk_is_the_walk_over_half_the_net(spec):
    # mu = 2^-k is a power of two and the first N/2 points of the net are the
    # N/2 net, in the same blocks, so every term of the prefix is half a term
    # of the N/2 walk and no sum rounds differently
    design = random_design(spec["d"], spec["n"], seed=spec["seed"])
    pred = spec["predictor"](KernelSpec("matern52", spec["theta_p"]), design)
    rng = np.random.default_rng(spec["seed"])
    eps_sqs = [pred.loo_residuals(rng.standard_normal(spec["n"])) ** 2
               for _ in range(spec["residuals"])]
    shift = spec["seed"] + 1 if spec["shifted"] else None
    walked = []
    for N in (2 ** spec["k"], 2 ** (spec["k"] - 1)):
        measure = small_measure(spec["d"], N, seed=shift)
        if spec["mixture"]:
            kernels = [KernelSpec("matern32", spec["thetas"][0]),
                       KernelSpec("gaussian", spec["thetas"][1])]
            bundle = mixture_bundle(pred, kernels, [spec["nu"], 1.0 - spec["nu"]], measure)
        else:
            bundle = build_bundle(pred, KernelSpec("matern32", spec["thetas"][0]), measure)
        captured = []
        finish = moments._BundleIntegrals.finish
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(moments._BundleIntegrals, "finish",
                       lambda acc, blocks: captured.append(blocks) or finish(acc, blocks))
            support_pass([(bundle, eps_sq) for eps_sq in eps_sqs])
        walked.append((bundle, captured[0]))
    (_, blocks), (half, half_blocks) = walked
    assert len(blocks) == 2 * len(half_blocks) >= 2
    b, J, defect, clamped = _prefix_sums(blocks[:len(half_blocks)])
    assert (2.0 * b).tobytes() == half.b.tobytes()
    assert (2.0 * J, 2.0 * defect) == (half.J, half.sum_to_one_defect)
    assert len(clamped) == len(eps_sqs)
    for (blp, blup), eps_sq in zip(clamped, eps_sqs):
        blp_half, blup_half = half.clamped_integrals(eps_sq)
        assert 2.0 * blp == blp_half
        assert blup_half is None or 2.0 * blup == blup_half


def _svd_verdict(R):
    """(full_rank, raises) as the SVD decides them in LinearPredictor.loo."""
    sv = np.linalg.svd(R, compute_uv=False)
    return (bool(sv[-1] > sv[0] / RANK_DEFICIENT_COND),
            len(sv) >= 2 and not sv[-2] > sv[0] / RANK_DEFICIENT_COND), sv[0] / sv[-1]


@st.composite
def kriging_problems(draw):
    """A family, range and nugget and a design of up to 60 points; one draw
    in two is a Gaussian kernel of small range on many points, nearly singular."""
    if draw(st.booleans()):
        kern = KernelSpec(draw(st.sampled_from(FAMILIES)), draw(st.floats(0.5, 50.0)),
                          draw(st.sampled_from([0.0, 0.01])))
        d, n = draw(st.integers(1, 4)), draw(st.integers(2, 60))
    else:
        kern = KernelSpec("gaussian", 2.0 ** draw(st.floats(-1.0, 4.0)),
                          draw(st.sampled_from([0.0, 0.01])))
        d, n = draw(st.integers(1, 3)), draw(st.integers(20, 60))
    return kern, random_design(d, n, seed=draw(st.integers(0, 10_000)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(problem=kriging_problems())
def test_the_cond_bound_gives_the_svds_rank_verdict(problem):
    try:
        pred = SimpleKriging(*problem)
    except LooiseError:
        return  # K_n singular beyond the jitter ladder: no predictor, no LOO operator
    R = pred._loo_matrix()
    beta = pred._cond_bound(R)
    (full_rank, raises), cond = _svd_verdict(R)
    if pred.n * np.finfo(float).eps * beta**2 <= COND_BOUND_TRUST:  # the fast path answers
        assert (full_rank, raises) == (True, False)
        assert cond <= beta * (1.0 + 1e-6)
        assert pred.loo.full_rank
    elif raises:
        with pytest.raises(RankDeficient):
            pred.loo
    else:
        assert pred.loo.full_rank == full_rank
