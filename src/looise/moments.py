"""Gaussian moments of prediction errors and squared LOO residuals.

Everything here is normalized by the process variance: the assumed
model only enters through its correlation kernel, so no variance
estimate is ever required. A :class:`MomentBundle` collects, for one
assumed kernel (or a finite mixture of kernels, or the independent
limit), the first two moments of the squared LOO residual vector
(u and S), their cross moments with the integrated squared error
(b and J), and optionally V, half the variance of the ISE itself.

Integration against the measure is streamed in blocks, and no block forms
the n-wide cross-moment rows c(x). Per kernel, c(x) = rho^2(x) u + 2 G(x)^{o2}
with G = (R^T t(x))^T and t(x) = k(x) - K w(x), and the walk reads c only
as sums over the block, mu^T c = (mu . rho^2) u + 2 mu^T (G o G) for b, and
as projections c(x)^T v = rho^2(x) u^T v + 2 (G o G) v onto g = S^{-1} eps^2
and h = S^{-1} u for the clamped estimates. :func:`support_pass` is the one
walk over the support blocks. It serves a batch of bundles (b, J and the
clamped blp/blup integrals of given residuals) and of squared-error sums
int (f - W y)^2 dmu at once: per block, each distinct predictor draws
its weight rows once, the block's distances to a design are computed once for
every kernel's cross-correlations, and a dict that the caller keeps lets
bundles and walks that share a design build the distances, each kernel's
record and its cross-correlation blocks once. The record is a :class:`numerics.DesignKernel`,
the one record type the kriging predictors hold too. Every bundle keeps
the arithmetic of a walk of its own. A bundle asked for b or J first makes
a one-job walk, under its lock.

V is the O(N^2) double integral of rho^4(x, x'). Its integrand is
symmetric, so it is summed over each unordered pair of row blocks once;
besides C (N n doubles) and W (kept as the bundle's table) it holds a few tiles per worker.

Both integrals are ordered folds: each row block runs on a thread of
:func:`numerics.map_ordered` and returns its own terms, and the calling
thread adds them in block order with the expressions of a serial loop.
The support size, the largest predictor size n among the jobs, BLOCK,
BLOCK_ENTRIES and VN_BLOCK alone fix the blocks, so no bit depends on the
workers.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .designs import Design, IntegrationMeasure
from .errors import (
    BundleMismatch,
    DegenerateConstraint,
    DimensionMismatch,
    FlatLimitSingular,
    NotPositiveDefinite,
    WeightSimplexViolation,
)
from .kernels import KernelSpec, cross_matrix, distances, kernel_matrix
from .numerics import DesignKernel

BLOCK = 1024  # at most this many support rows per block of the single integrals
BLOCK_ENTRIES = 1 << 17  # and at most this many doubles in a block's (rows, n) arrays
VN_BLOCK = 512  # rows per block of the O(N^2) V_n double integral
CONSTRAINT_TOL = 1e-14  # q = u^T S^{-1} u at or below this: degenerate constraint


class WeightSource:
    """A predictor's weight rows over the support of a measure."""

    def __init__(self, predictor, measure: IntegrationMeasure):
        self.predictor = predictor
        self._measure = measure
        self._table = predictor.table_on(measure.points)

    def block(self, lo: int, hi: int, dist=None) -> np.ndarray:
        """Weight rows lo:hi of the support: a view of the source's table when it holds one
        (the predictor's, or V_n's draw), so only read; `dist`, their distances, is only read."""
        if self._table is not None:
            return self._table[lo:hi]
        return self.predictor.weights_matrix(self._measure.points[lo:hi], dist)


def block_rows(n: int) -> int:
    """Rows per support block for predictors of at most n points: BLOCK, halved
    while the block's (rows, n) arrays would hold more than BLOCK_ENTRIES doubles."""
    rows = BLOCK
    while rows > 1 and rows * n > BLOCK_ENTRIES:
        rows //= 2
    return rows


def support_blocks(measure: IntegrationMeasure, size: int):
    """The one loop over the support, in blocks of `size` rows.

    Yields (rows, X, mu): the slice of the block, its points and their
    measure weights.
    """
    for lo in range(0, measure.size, size):
        hi = min(lo + size, measure.size)
        yield slice(lo, hi), measure.points[lo:hi], measure.weights[lo:hi]


@dataclass(frozen=True)
class Component:
    """One kernel of the assumed model; kernel None denotes the independent limit."""

    nu: float
    kernel: KernelSpec | None
    record: DesignKernel | None  # K on the design, shared by bundles; None in the limit
    u: np.ndarray


@dataclass
class MomentBundle:
    """b, J and the sum-to-one defect, int (1 - w(x)^T 1)^2 dmu, come from the
    support pass, run on first demand unless a batched walk filled them.

    V is half the variance of the ISE, so that E[ISE^2] = J^2 + 2 V. For one
    kernel it is the double integral of rho^4; under a mixture it is the
    nu-weighted mean of the per-kernel V_k plus half the nu-weighted spread
    of the per-kernel J_k around J."""

    u: np.ndarray
    S: np.ndarray
    V: float | None
    R: np.ndarray
    design: Design
    measure: IntegrationMeasure
    components: list[Component]
    weights: WeightSource
    S_fact: numerics.SpdFactorization = field(init=False, repr=False)

    def __post_init__(self):
        try:
            self.S_fact = numerics.spd_factorize(self.S)
        except NotPositiveDefinite as exc:
            raise FlatLimitSingular(
                "S is numerically singular; the assumed kernel is too close "
                "to its flat limit for this predictor"
            ) from exc
        self._moments = None  # (b, J, defect), once the support pass has run
        self._hq = None  # (h, q) of the unbiasedness constraint
        self._gamma_blp = None  # S^{-1} b
        self._clamped = {}  # eps^2 bytes -> (blp+, blup+ or None)
        self._lock = threading.Lock()  # held by the walks and the lazy solves

    @property
    def n(self) -> int:
        return len(self.u)

    def solve_S(self, rhs) -> np.ndarray:
        return numerics.solve(self.S_fact, rhs)

    @functools.cached_property
    def covariance(self) -> DesignKernel:
        """The record of the covariance sum_k nu_k K_k on the design, built on
        first use; one kernel's is its shared record. The limit has none."""
        if any(c.record is None for c in self.components):
            raise BundleMismatch("the independent-limit bundle has no covariance matrix")
        if len(self.components) == 1:
            return self.components[0].record
        return DesignKernel(sum(c.nu * c.record.K for c in self.components))

    def _cross_moments(self) -> tuple:
        if self._moments is None:
            support_pass([(self, None)])
        return self._moments

    b = property(lambda self: self._cross_moments()[0])
    J = property(lambda self: self._cross_moments()[1])
    sum_to_one_defect = property(lambda self: self._cross_moments()[2])

    @property
    def gamma_blp(self) -> np.ndarray:
        """The best linear weights S^{-1} b, solved once; read-only."""
        b = self.b
        with self._lock:
            if self._gamma_blp is None:
                gamma = self.solve_S(b)
                gamma.flags.writeable = False
                self._gamma_blp = gamma
        return self._gamma_blp

    def constraint(self) -> tuple[np.ndarray, float]:
        """h = S^{-1} u and q = u^T h of the unbiasedness constraint gamma^T u = J."""
        with self._lock:
            if self._hq is None:
                h = self.solve_S(self.u)
                self._hq = (h, float(self.u @ h))
        if self._hq[1] <= CONSTRAINT_TOL:
            raise DegenerateConstraint("u^T S^{-1} u is numerically zero")
        return self._hq

    def clamped_integrals(self, eps_sq: np.ndarray) -> tuple[float, float | None]:
        """The blp and blup pointwise estimates from eps_sq, clamped at zero and
        integrated: c(x)^T g (blp) and c(x)^T g + (rho^2(x) - c(x)^T h) u^T g / q
        (blup), with g = S^{-1} eps_sq, h = S^{-1} u; blup is None when the
        constraint is degenerate. Unless a walk already did, this makes a
        one-job walk, which also fills b, J and the defect if still unknown."""
        key = eps_sq.tobytes()
        if key not in self._clamped:
            support_pass([(self, eps_sq)])
        return self._clamped[key]


class _BundleIntegrals:
    """One bundle's share of a walk: b, J and the defect unless known, and the
    clamped blp/blup integrals of each residual vector it has not seen."""

    def __init__(self, bundle: MomentBundle):
        self.bundle = bundle
        self.weights = bundle.weights
        self.fill = bundle._moments is None
        self.b, self.J, self.defect = np.zeros(bundle.n), 0.0, 0.0
        self.clamped = {}  # eps^2 bytes -> [g, u^T g, blp, blup]

    def add_residuals(self, eps_sq: np.ndarray) -> None:
        bundle = self.bundle
        key = eps_sq.tobytes()
        if key in bundle._clamped or key in self.clamped:
            return
        if bundle._hq is None:  # one solve with two right-hand sides
            g, h = bundle.solve_S(np.column_stack([eps_sq, bundle.u])).T.copy()
            bundle._hq = (h, float(bundle.u @ h))
        else:
            g = bundle.solve_S(eps_sq)
        self.clamped[key] = [g, float(bundle.u @ g), 0.0, 0.0]

    def terms(self, rows, X, mu, W, geometry) -> tuple:
        """One block's terms, changing nothing: (defect, mu^T c, mu . rho^2) or
        None when b and J are known, and (blp+, blup+) per residual vector from
        one projection of c onto the columns [g_1 ... g_r, h]."""
        bundle = self.bundle
        parts, rho = _rho_gg(bundle.components, X, W, bundle.design, bundle.R, geometry)
        known = None if not self.fill else (
            float(mu @ (1.0 - W.sum(axis=1)) ** 2),
            sum(nu * ((mu @ rho_k) * u + 2.0 * (mu @ GG)) for nu, u, rho_k, GG in parts),
            float(mu @ rho))
        clamped = []
        if self.clamped:
            h, q = bundle._hq
            cv = _project(parts, np.column_stack([g for g, *_ in self.clamped.values()] + [h]))
            for j, (_, ug, _, _) in enumerate(self.clamped.values()):
                blp, blup = float(mu @ np.maximum(cv[:, j], 0.0)), 0.0
                if q > CONSTRAINT_TOL:
                    blup = float(mu @ np.maximum(cv[:, j] + (rho - cv[:, -1]) * (ug / q), 0.0))
                clamped.append((blp, blup))
        return known, clamped

    def add(self, terms: tuple) -> None:
        known, clamped = terms
        if known is not None:
            self.defect += known[0]
            self.b += known[1]
            self.J += known[2]
        for acc, (blp, blup) in zip(self.clamped.values(), clamped):
            acc[2] += blp
            acc[3] += blup

    def finish(self) -> None:
        bundle = self.bundle
        if self.fill:
            bundle._moments = (self.b, self.J, self.defect)
        degenerate = bundle._hq is None or bundle._hq[1] <= CONSTRAINT_TOL
        for key, (_, _, blp, blup) in self.clamped.items():
            bundle._clamped[key] = (blp, None if degenerate else blup)


class _SquaredError:
    """int (f - W y)^2 dmu of one predictor against known support values f."""

    def __init__(self, f, weights: WeightSource, y):
        self.fvals = np.asarray(f, dtype=float)
        self.weights = weights
        self.y = np.asarray(y, dtype=float)
        self.total = 0.0

    def terms(self, rows, X, mu, W, geometry) -> float:
        diff = self.fvals[rows] - W @ self.y
        return float(mu @ (diff * diff))

    def add(self, term: float) -> None:
        self.total += term


def support_pass(jobs, ise_jobs=(), shared: dict | None = None) -> list[float]:
    """One walk over the support serving a batch of bundles and error sums.

    `jobs` are (bundle, eps_sq or None) pairs. Each fills its bundle's b, J
    and sum-to-one defect unless known and, given eps_sq, stores the clamped
    blp/blup integrals that `clamped_integrals(eps_sq)` then returns.
    `ise_jobs` are (f, WeightSource(pred, measure), y) triples: support
    values of a known function, the predictor's weight source and the
    observations; the walk integrates (f - W y)^2 against the measure and
    returns these sums in order.

    Per block, each distinct predictor (by identity) draws its rows once, or slices
    them from a table one of its sources holds (V_n's draw), and holds them only while
    its own jobs compute their terms. A block's distances to a design are computed
    once, and every kernel's cross-correlations (the predictors' and the assumed
    kernels') are formed from them. `shared`, a dict the caller keeps (as for build_bundle), keeps
    both the distances and each (kernel, design) block of cross-correlations
    for the other jobs of this walk and for later walks over the same
    measure; it holds N x n values per design and per kernel and design.
    Without it the distances live for their block and each job forms its
    own cross-correlations. Every job does the arithmetic of a walk of its
    own, in the same order, so batching changes no bit of any result. All
    jobs must share one measure.
    """
    jobs = list(jobs)
    bundles = {id(bundle): bundle for bundle, _ in jobs}
    with contextlib.ExitStack() as held:
        for key in sorted(bundles):  # one lock order for every walk
            held.enter_context(bundles[key]._lock)
        integrals = {key: _BundleIntegrals(bundle) for key, bundle in bundles.items()}
        for bundle, eps_sq in jobs:
            if eps_sq is not None:
                integrals[id(bundle)].add_residuals(eps_sq)
        sums = [_SquaredError(*job) for job in ise_jobs]
        _walk([acc for acc in integrals.values() if acc.fill or acc.clamped] + sums, shared)
        for acc in integrals.values():
            acc.finish()
    return [err.total for err in sums]


def predictor_walk(pred, measure: IntegrationMeasure, kernels, residuals=lambda bundle: (),
                   truth=None, oracle=None, shared: dict | None = None):
    """The bundles of `pred` under each assumed kernel (None: the independent
    limit), and the `oracle` bundle when one rides along.

    One support pass fills them and integrates the clamped blp/blup estimates
    of each residual vector in residuals(bundle) and, given truth = (f, y)
    with f the function's values on the support, the true ISE of `pred`,
    which is returned with the bundles (None without `truth`). The bundles
    and the walk keep their shared state in `shared`, as in build_bundle."""
    bundles = [independent_limit_bundle(pred, measure) if kern is None else
               build_bundle(pred, kern, measure, shared=shared) for kern in kernels]
    jobs = [(b, None) for b in bundles + ([oracle] if oracle else [])]
    jobs += [(b, eps**2) for b in bundles for eps in residuals(b)]
    ise_jobs = [(truth[0], WeightSource(pred, measure), truth[1])] if truth else []
    sums = support_pass(jobs, ise_jobs, shared)
    return bundles, (sums[0] if sums else None)


def _walk(accumulators, shared: dict | None) -> None:
    groups = {}  # id(predictor) -> its accumulators, those whose source holds a table first
    for acc in sorted(accumulators, key=lambda acc: acc.weights._table is None):
        groups.setdefault(id(acc.weights.predictor), []).append(acc)
    if not groups:
        return
    sources = [group[0].weights for group in groups.values()]
    measure = sources[0]._measure
    if any(acc.weights._measure is not measure for acc in accumulators):
        raise DimensionMismatch("the jobs of one support pass must share one measure")

    def block_terms(block) -> list:
        rows, X, mu = block
        geometry = _Geometry(X, shared, measure, rows.start)
        terms = []
        for ws, group in zip(sources, groups.values()):
            reads = ws.predictor.reads_distances
            W = ws.block(rows.start, rows.stop,
                         geometry.distances(ws.predictor.design) if reads else None)
            terms += [acc.terms(rows, X, mu, W, geometry) for acc in group]
        return terms

    ordered = [acc for group in groups.values() for acc in group]
    size = block_rows(max(ws.predictor.n for ws in sources))
    for terms in numerics.map_ordered(block_terms, support_blocks(measure, size)):
        for acc, term in zip(ordered, terms):
            acc.add(term)


class _Geometry:
    """A block of points' distances to each design, computed once, and each
    (kernel, design) block of cross-correlations, formed from them. Given the walk's
    `shared` dict, both are kept there under the design, kernel, measure and block's
    first row (walks that share a dict at once find it filled by a first walk, so no
    two workers build one entry); otherwise the distances live with this block and
    every request forms its cross-correlations anew, an array the caller may overwrite."""

    def __init__(self, X: np.ndarray, shared: dict | None = None, measure=None, lo: int = 0):
        self.X = X
        self.fresh_cross = shared is None
        self._cache = {} if shared is None else shared
        self._measure, self._lo = measure, lo

    def distances(self, design: Design) -> np.ndarray:
        key = ("distances", design, self._measure, self._lo)
        if key not in self._cache:
            self._cache[key] = distances(self.X, design.points)
        return self._cache[key]

    def cross(self, kernel: KernelSpec, design: Design) -> np.ndarray:
        """The block's cross-correlations with the design; only read unless fresh_cross."""
        if self.fresh_cross:
            return cross_matrix(kernel, design.points, self.X, self.distances(design))
        key = (kernel, design, self._measure, self._lo)
        if key not in self._cache:
            self._cache[key] = cross_matrix(kernel, design.points, self.X, self.distances(design))
        return self._cache[key]


def _record(kernel: KernelSpec, design: Design, shared: dict) -> DesignKernel:
    """The kernel's record on the design, built once per `shared` dict."""
    if (kernel, design) not in shared:
        shared[kernel, design] = DesignKernel(kernel_matrix(kernel, design.points))
    return shared[kernel, design]


def _rho_gg(components, X: np.ndarray, W: np.ndarray, design: Design, R: np.ndarray,
            geometry: _Geometry | None = None) -> tuple[list, np.ndarray]:
    """Per component on one block of points, (nu, u, rho^2(x), G(x) o G(x));
    and the mixture rho^2(x).

    The component's c(x) = rho^2(x) u + 2 G(x)^{o2}, with G = (R^T t(x))^T
    and t(x) = k(x) - K w(x), so c(x)^T v = rho^2(x) u^T v + 2 G^{o2} v for
    any v. The cross-correlations of X with the design come from the walk's
    `geometry` of the block when it has one; G is written into them when the
    geometry hands them out fresh, and they are only read otherwise.
    """
    geometry = geometry or _Geometry(X)
    parts, rho_mix = [], 0.0
    for comp in components:
        if comp.kernel is None:
            rho = 1.0 + _row_dots(W, W)
            G = W @ R
        else:
            C = geometry.cross(comp.kernel, design)
            T = W @ comp.record.K
            rho = (1.0 + comp.kernel.nugget) - 2.0 * _row_dots(W, C) + _row_dots(T, W)
            np.subtract(C, T, out=T)
            G = np.matmul(T, R, out=C) if geometry.fresh_cross else T @ R
        G *= G
        parts.append((comp.nu, comp.u, rho, G))
        rho_mix = rho_mix + comp.nu * rho
    return parts, rho_mix


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum(A * B, axis=1) without forming A * B: one batched 1 x n by n x 1 matmul."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


def _project(parts, V: np.ndarray) -> np.ndarray:
    """The mixture c(x)^T V on the block of `parts`, one column per column of V."""
    return sum(nu * (rho[:, None] * (u @ V) + 2.0 * (GG @ V)) for nu, u, rho, GG in parts)


def pointwise_c_rho(bundle: MomentBundle, X):
    """Rows of the mixture c(x) and the mixture rho^2(x) at the given points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    W = bundle.weights.predictor.weights_matrix(X)
    parts, rho = _rho_gg(bundle.components, X, W, bundle.design, bundle.R)
    return sum(nu * (rho_k[:, None] * u + 2.0 * GG) for nu, u, rho_k, GG in parts), rho


def _vn_component(comp: Component, W: np.ndarray, design: Design,
                  measure: IntegrationMeasure) -> tuple[float, float]:
    """Double integral of rho^4(x, x') against the measure for one kernel, and the
    integral of its diagonal rho^2(x, x), the kernel's J; W, the support's rows, is only read.

    rho^2(x, x') is symmetric, so each unordered pair of row blocks is
    visited once: a block row is evaluated against itself and the columns
    after it, and the blocks off the diagonal count twice. A block row forms
    its rows of t(x) = k(x) - K w(x) and is built in tiles of VN_BLOCK rows and
    min(VN_BLOCK, BLOCK_ENTRIES // VN_BLOCK) columns, each folded against the
    row weights at once: a worker holds a few tiles, its t and N sums whatever N.
    """
    mu = measure.weights
    kernel = comp.kernel
    pts = measure.points
    N = measure.size
    C = cross_matrix(kernel, design.points, pts)
    width = min(VN_BLOCK, BLOCK_ENTRIES // VN_BLOCK)

    def block_row(block) -> tuple[float, float, float]:
        rows, X, mu_rows = block
        lo, m = rows.start, rows.stop - rows.start
        # rho^2(x, x') = k(x, x') - w(x)^T k(x') - t(x)^T w(x')
        T = W[rows] @ comp.record.K
        np.subtract(C[rows], T, out=T)
        row, diag = np.empty(N - lo), np.empty(m)  # mu_rows^T rho^4 over the columns lo:
        for start in range(lo, N, width):
            cols = slice(start, min(start + width, N))
            tile = cross_matrix(kernel, pts[cols], X)
            i = np.arange(start - lo, min(cols.stop - lo, m))
            own = (i, i - (start - lo))  # the entries of the block's diagonal in the tile
            tile[own] += kernel.nugget
            tile -= W[rows] @ C[cols].T
            tile -= T @ W[cols].T
            diag[i] = tile[own]
            tile *= tile
            row[start - lo:cols.stop - lo] = mu_rows @ tile
        return float(row[:m] @ mu_rows), 2.0 * float(row[m:] @ mu[rows.stop:]), \
            float(mu_rows @ diag)

    total = diag = 0.0
    for own, off, d in numerics.map_ordered(block_row,
                                             support_blocks(measure, VN_BLOCK)):
        total += own + off
        diag += d
    return total, diag


def _assemble(parts, pred, measure: IntegrationMeasure, compute_Vn: bool) -> MomentBundle:
    """The bundle of `pred` under (nu, kernel, record) parts; V_n's draw of W stays as its table."""
    R, design, weights = pred.loo.matrix, pred.design, WeightSource(pred, measure)
    n = design.n
    u = np.zeros(n)
    S = np.zeros((n, n))
    components = []
    for nu, kernel, record in parts:
        A = R.T @ R if record is None else R.T @ record.K @ R
        comp = Component(nu=nu, kernel=kernel, record=record, u=np.diag(A).copy())
        u += nu * comp.u
        S += nu * (np.outer(comp.u, comp.u) + 2.0 * (A * A))  # (R^T K R)^{o2}
        components.append(comp)
    S = 0.5 * (S + S.T)

    V = None
    if compute_Vn:
        if weights._table is None:
            table = np.empty((measure.size, n))
            for rows, *_ in support_blocks(measure, block_rows(n)):  # no block outlives its copy
                table[rows] = weights.block(rows.start, rows.stop)
            weights._table = table
        VJ = [_vn_component(comp, weights._table, design, measure) for comp in components]
        V = sum(comp.nu * v for comp, (v, _) in zip(components, VJ))
        if len(components) > 1:  # half the spread of the per-kernel J around J
            J = sum(comp.nu * j for comp, (_, j) in zip(components, VJ))
            V += 0.5 * sum(comp.nu * (j - J) ** 2 for comp, (_, j) in zip(components, VJ))
    return MomentBundle(u=u, S=S, V=V, R=R, design=design, measure=measure,
                        components=components, weights=weights)


def build_bundle(pred, kernel_e: KernelSpec, measure: IntegrationMeasure,
                 compute_Vn: bool = False, shared: dict | None = None) -> MomentBundle:
    """Moment bundle of the predictor `pred` for a single assumed kernel.

    The LOO operator R, the design and the weight rows are all the
    predictor's. The bundles built with one `shared` dict share the
    kernel's DesignKernel.
    """
    record = _record(kernel_e, pred.design, {} if shared is None else shared)
    return _assemble([(1.0, kernel_e, record)], pred, measure, compute_Vn)


def mixture_bundle(pred, kernels, nu, measure: IntegrationMeasure,
                   compute_Vn: bool = False) -> MomentBundle:
    """Moment bundle of `pred` under a finite mixture of GP kernels.

    Every expectation decomposes componentwise (the mixture of Gaussians
    is not Gaussian, so S is the mixture of the per-kernel fourth-moment
    matrices, not the fourth-moment matrix of a mixed kernel).
    """
    if len(nu) != len(kernels):
        raise DimensionMismatch("one weight per kernel required")
    parts = [(float(w), k, _record(k, pred.design, {})) for k, w in zip(kernels, simplex(nu))]
    return _assemble(parts, pred, measure, compute_Vn)


def simplex(nu) -> np.ndarray:
    """The mixture weights nu as an array, checked to be nonnegative and to sum to 1."""
    nu = np.asarray(nu, dtype=float)
    if not ((nu >= 0).all() and abs(nu.sum() - 1.0) <= 1e-12):  # NaN weights fail too
        raise WeightSimplexViolation("mixture weights must be nonnegative and sum to 1")
    return nu


def independent_limit_bundle(pred, measure: IntegrationMeasure) -> MomentBundle:
    """Limit bundle as the assumed range parameter grows without bound.

    The design correlations vanish (K_n -> I) and the formulas reduce to
    u = diag(R^T R), J = 1 + int ||w||^2 dmu,
    b = J u + 2 diag(R^T [int w w^T dmu] R),
    S = u u^T + 2 (R^T R)^{o2}. V is not computed in the limit.
    """
    return _assemble([(1.0, None, None)], pred, measure, False)


def flat_limit_diagnostics(bundle: MomentBundle) -> dict:
    """Limits of the bundle's predictor as the assumed range parameter tends to zero.

    Reports J(0) = int (1 - w^T 1)^2 dmu, the bundle's sum-to-one defect,
    u(0) = (R^T 1)^{o2}, b(0) = 3 J(0) u(0), and whether the predictor is in
    the sum-to-one class (u(0) = 0 and J(0) = 0, the benign case). Otherwise
    S(0) is the rank-one matrix 3 u(0) u(0)^T and the estimator has no flat
    limit.
    """
    u0 = (bundle.R.T @ np.ones(bundle.n)) ** 2
    J0 = bundle.sum_to_one_defect
    sum_to_one = bool(J0 < 1e-12 and np.max(u0, initial=0.0) < 1e-12)
    return {
        "J0": J0,
        "u0": u0,
        "b0": 3.0 * J0 * u0,
        "rank_one_S0": not sum_to_one,
        "sum_to_one_class": sum_to_one,
    }
