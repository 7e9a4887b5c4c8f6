"""Gaussian moments of prediction errors and squared LOO residuals.

Everything here is normalized by the process variance: the assumed
model only enters through its correlation kernel, so no variance
estimate is ever required. A :class:`MomentBundle` collects, for one
assumed kernel (or a finite mixture of kernels, or the independent
limit), the first two moments of the squared LOO residual vector
(u and S), their cross moments with the integrated squared error
(b and J), and optionally the second moment V of the ISE itself.

Integration against the measure is streamed in blocks: per-point
cross-moment vectors c(x) are accumulated into b without materializing
the (support size) x n array. A bundle makes this one pass on first
demand, under a lock; it also integrates the clamped blp/blup estimates.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .designs import Design, IntegrationMeasure
from .errors import (
    DegenerateConstraint,
    DimensionMismatch,
    FlatLimitSingular,
    NotPositiveDefinite,
    WeightSimplexViolation,
)
from .kernels import KernelSpec, PointIndex, cross_matrix, kernel_matrix

BLOCK = 4096  # support rows per block of the single integrals
VN_BLOCK = 512  # rows per block of the O(N^2) V_n double integral
CONSTRAINT_TOL = 1e-14  # q = u^T S^{-1} u at or below this: degenerate constraint


class WeightSource:
    """Uniform access to predictor weights over the measure support.

    Accepts a LinearPredictor or a precomputed (N, n) array aligned with
    the support. Array-backed sources can only be evaluated on support
    points, found under the one coincidence rule.
    """

    def __init__(self, source, measure: IntegrationMeasure, n: int):
        self._measure = measure
        self._array = None
        self._fn = None
        if hasattr(source, "weights_matrix"):
            self._fn = source.weights_matrix
        else:
            arr = np.asarray(source, dtype=float)
            if arr.shape != (measure.size, n):
                raise DimensionMismatch(
                    f"weight table has shape {arr.shape}, expected ({measure.size}, {n})"
                )
            self._array = arr

    def block(self, lo: int, hi: int) -> np.ndarray:
        if self._array is not None:
            return self._array[lo:hi]
        return np.asarray(self._fn(self._measure.points[lo:hi]), dtype=float)

    def at(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._fn is None:  # array-backed: look the rows up on the support
            index = PointIndex(self._measure.points)
            self._fn = lambda X: self._array[index.rows(X)]
        return np.asarray(self._fn(X), dtype=float)

    def full(self) -> np.ndarray:
        if self._array is not None:
            return self._array
        return self.at(self._measure.points)


def support_blocks(measure: IntegrationMeasure, weights: WeightSource | None = None,
                   size: int = BLOCK):
    """The one loop over the support, in blocks of `size` rows.

    Yields (rows, X, mu, W): the slice of the block, its points, their
    measure weights and, when a weight source is given, its weight rows.
    """
    for lo in range(0, measure.size, size):
        hi = min(lo + size, measure.size)
        W = None if weights is None else weights.block(lo, hi)
        yield slice(lo, hi), measure.points[lo:hi], measure.weights[lo:hi], W


@dataclass(frozen=True)
class Component:
    """One kernel of the assumed model; kernel None denotes the independent limit."""

    nu: float
    kernel: KernelSpec | None
    K: np.ndarray | None  # the kernel matrix on the design
    u: np.ndarray
    rkr_sq: np.ndarray  # (R^T K R)^{o2}, the variance kernel of eps_loo^{o2}


@dataclass
class MomentBundle:
    """b, J and the sum-to-one defect, int (1 - w(x)^T 1)^2 dmu, come from the
    one support pass, run on first demand."""

    u: np.ndarray
    S: np.ndarray
    V: float | None
    R: np.ndarray
    design: Design
    measure: IntegrationMeasure
    components: list[Component]
    weights: WeightSource
    S_fact: numerics.SpdFactorization = field(default=None, repr=False)

    def __post_init__(self):
        if self.S_fact is None:
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
        self._lock = threading.Lock()

    @property
    def n(self) -> int:
        return len(self.u)

    def solve_S(self, rhs) -> np.ndarray:
        return numerics.solve(self.S_fact, rhs)

    @property
    def vn_included(self) -> bool:
        return self.V is not None

    def _cross_moments(self) -> tuple:
        with self._lock:
            if self._moments is None:
                self._support_pass()
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
        integrated; blup is None when the constraint is degenerate."""
        key = eps_sq.tobytes()
        with self._lock:
            if key not in self._clamped:
                self._clamped[key] = self._support_pass(eps_sq)
            return self._clamped[key]

    def _support_pass(self, eps_sq: np.ndarray | None = None):
        """The one pass: b, J and the defect unless known, and given eps_sq the
        clamped integrals of c(x)^T g (blp) and of c(x)^T g + (rho^2(x) -
        c(x)^T h) u^T g / q (blup), with g = S^{-1} eps_sq, h = S^{-1} u."""
        fill = self._moments is None
        b, J, defect, blp, blup = np.zeros(self.n), 0.0, 0.0, 0.0, 0.0
        if eps_sq is not None:
            if self._hq is None:  # one solve with two right-hand sides
                g, h = self.solve_S(np.column_stack([eps_sq, self.u])).T.copy()
                self._hq = (h, float(self.u @ h))
            else:
                g = self.solve_S(eps_sq)
            h, q = self._hq
            ug = float(self.u @ g)
        for _, X, mu, W in support_blocks(self.measure, self.weights):
            C_rows, rho = _c_rho(self.components, X, W, self.design, self.R)
            if fill:
                defect += _sum_to_one_defect(mu, W)
                b += mu @ C_rows
                J += float(mu @ rho)
            if eps_sq is not None:
                vals = C_rows @ g
                blp += float(mu @ np.maximum(vals, 0.0))
                if q > CONSTRAINT_TOL:
                    vals = vals + (rho - C_rows @ h) * (ug / q)
                    blup += float(mu @ np.maximum(vals, 0.0))
        self._moments = self._moments or (b, J, defect)
        return None if eps_sq is None else (blp, blup if q > CONSTRAINT_TOL else None)


def _sources(R, weights, measure: IntegrationMeasure):
    """The raw LOO matrix and a WeightSource, whatever form they came in."""
    R = R.matrix if hasattr(R, "matrix") else np.asarray(R, dtype=float)
    if not isinstance(weights, WeightSource):
        weights = WeightSource(weights, measure, R.shape[0])
    return R, weights


def _component_for(kernel: KernelSpec | None, nu: float, R: np.ndarray,
                   design: Design) -> Component:
    K = None if kernel is None else kernel_matrix(kernel, design.points)
    A = R.T @ R if K is None else R.T @ K @ R
    return Component(nu=nu, kernel=kernel, K=K, u=np.diag(A).copy(), rkr_sq=A * A)


def _c_rho(components, X: np.ndarray, W: np.ndarray, design: Design, R: np.ndarray):
    """Rows of the mixture c(x) and the mixture rho^2(x) on one block of points.

    Per component, c(x) = rho^2(x) u + 2 G(x)^{o2} with G = (R^T t(x))^T
    and t(x) = k(x) - K w(x).
    """
    C_rows = np.zeros((len(X), R.shape[1]))
    rho_mix = np.zeros(len(X))
    for comp in components:
        if comp.kernel is None:
            rho = 1.0 + np.sum(W * W, axis=1)
            G = W @ R
        else:
            C = cross_matrix(comp.kernel, design.points, X)
            KW = W @ comp.K
            rho = ((1.0 + comp.kernel.nugget) - 2.0 * np.sum(W * C, axis=1)
                   + np.sum(KW * W, axis=1))
            G = (C - KW) @ R
        C_rows += comp.nu * (rho[:, None] * comp.u[None, :] + 2.0 * G * G)
        rho_mix += comp.nu * rho
    return C_rows, rho_mix


def pointwise_c_rho(bundle: MomentBundle, X, W=None):
    """Rows of the mixture c(x) and the mixture rho^2(x) at the given points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if W is None:
        W = bundle.weights.at(X)
    return _c_rho(bundle.components, X, W, bundle.design, bundle.R)


def _sum_to_one_defect(mu: np.ndarray, W: np.ndarray) -> float:
    """One block's share of int (1 - w(x)^T 1)^2 dmu."""
    return float(mu @ (1.0 - W.sum(axis=1)) ** 2)


def _vn_component(comp: Component, W: np.ndarray, design: Design,
                  measure: IntegrationMeasure) -> float:
    """Double integral of rho^4(x, x') against the measure, for one kernel."""
    mu = measure.weights
    kernel = comp.kernel
    pts = measure.points
    C = cross_matrix(kernel, design.points, pts)
    P = W @ comp.K
    total = 0.0
    for rows, X, mu_rows, _ in support_blocks(measure, size=VN_BLOCK):
        Kxx = cross_matrix(kernel, pts, X)
        if kernel.nugget:
            cols = np.arange(rows.start, rows.stop)
            Kxx[cols - rows.start, cols] += kernel.nugget
        cross = Kxx - W[rows] @ C.T - C[rows] @ W.T + P[rows] @ W.T
        total += float(mu_rows @ (cross * cross) @ mu)
    return total


def _assemble(components, R, weights: WeightSource, design: Design,
              measure: IntegrationMeasure, compute_Vn: bool) -> MomentBundle:
    n = design.n
    u = np.zeros(n)
    S = np.zeros((n, n))
    for comp in components:
        u += comp.nu * comp.u
        S += comp.nu * (np.outer(comp.u, comp.u) + 2.0 * comp.rkr_sq)
    S = 0.5 * (S + S.T)

    V = None
    if compute_Vn:
        W_full = weights.full()
        V = sum(comp.nu * _vn_component(comp, W_full, design, measure)
                for comp in components)
    return MomentBundle(u=u, S=S, V=V, R=R, design=design, measure=measure,
                        components=list(components), weights=weights)


def build_bundle(R, weights, kernel_e: KernelSpec, design: Design,
                 measure: IntegrationMeasure, compute_Vn: bool = False) -> MomentBundle:
    """Moment bundle for a single assumed kernel.

    `R` is the LOO operator (or its raw matrix), `weights` the predictor
    weights over the measure support (predictor or (N, n) array).
    """
    R, ws = _sources(R, weights, measure)
    comp = _component_for(kernel_e, 1.0, R, design)
    return _assemble([comp], R, ws, design, measure, compute_Vn)


def mixture_components(kernels, nu, R, design: Design) -> list[Component]:
    nu = np.asarray(nu, dtype=float)
    if len(nu) != len(kernels):
        raise DimensionMismatch("one weight per kernel required")
    if (nu < 0).any() or abs(nu.sum() - 1.0) > 1e-12:
        raise WeightSimplexViolation("mixture weights must be nonnegative and sum to 1")
    return [_component_for(k, float(w), R, design) for k, w in zip(kernels, nu)]


def mixture_bundle(kernels, nu, R, weights, design: Design,
                   measure: IntegrationMeasure, compute_Vn: bool = False) -> MomentBundle:
    """Moment bundle under a finite mixture of GP kernels.

    Every expectation decomposes componentwise (the mixture of Gaussians
    is not Gaussian, so S is the mixture of the per-kernel fourth-moment
    matrices, not the fourth-moment matrix of a mixed kernel). `R` and
    `weights` (predictor or (N, n) array) are as in build_bundle.
    """
    R, ws = _sources(R, weights, measure)
    comps = mixture_components(kernels, nu, R, design)
    return _assemble(comps, R, ws, design, measure, compute_Vn)


def independent_limit_bundle(R, weights, design: Design,
                             measure: IntegrationMeasure) -> MomentBundle:
    """Limit bundle as the assumed range parameter grows without bound.

    The design correlations vanish (K_n -> I) and the formulas reduce to
    u = diag(R^T R), J = 1 + int ||w||^2 dmu,
    b = J u + 2 diag(R^T [int w w^T dmu] R),
    S = u u^T + 2 (R^T R)^{o2}. V is not computed in the limit. `R` and
    `weights` (predictor or (N, n) array) are as in build_bundle.
    """
    R, ws = _sources(R, weights, measure)
    comp = _component_for(None, 1.0, R, design)
    return _assemble([comp], R, ws, design, measure, False)


def flat_limit_diagnostics(R, weights, measure: IntegrationMeasure) -> dict:
    """Limits as the assumed range parameter tends to zero.

    Reports J(0) = int (1 - w^T 1)^2 dmu, u(0) = (R^T 1)^{o2},
    b(0) = 3 J(0) u(0), and whether the predictor is in the sum-to-one
    class (u(0) = 0 and J(0) = 0, the benign case). Otherwise S(0) is
    the rank-one matrix 3 u(0) u(0)^T and the estimator has no flat
    limit.
    """
    R, ws = _sources(R, weights, measure)
    u0 = (R.T @ np.ones(R.shape[0])) ** 2
    J0 = 0.0
    for _, _, mu, W in support_blocks(measure, ws):
        J0 += _sum_to_one_defect(mu, W)
    sum_to_one = bool(J0 < 1e-12 and np.max(u0, initial=0.0) < 1e-12)
    return {
        "J0": J0,
        "u0": u0,
        "b0": 3.0 * J0 * u0,
        "rank_one_S0": not sum_to_one,
        "sum_to_one_class": sum_to_one,
    }
