"""Design generation, geometric statistics and range-parameter selection.

Designs live in [0,1]^d. Three generators are provided: tensor grids,
Sobol' sequences (optionally scrambled by a seeded digital shift), and
the relaxed greedy-packing recursion that starts from the center of the
cube and repeatedly moves toward the farthest candidate point.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics, rng
from .errors import (
    DegenerateData,
    DimensionMismatch,
    EmptyCandidates,
    KTooLarge,
    NoRoot,
    NotPositiveDefinite,
    SinglePoint,
    TooManyPoints,
    UnsupportedDimension,
)
from .kernels import (
    KernelSpec,
    PointIndex,
    correlation,
    distances,
    kernel_matrix,
    kth_nearest,
    min_pairwise_distance,
)
from .numerics import DesignKernel

SOBOL_MAX_DIM = 21
SOBOL_BITS = 30

# Joe & Kuo (2008), new-joe-kuo-6.21201, dimensions 2..21: the primitive
# polynomial as an integer (leading and trailing 1 bits included) and the
# initial direction numbers m_1..m_s, s its degree. Dimension 1 has all m_k = 1.
_JOE_KUO = (
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
)


def _direction_integers() -> np.ndarray:
    """(SOBOL_MAX_DIM, SOBOL_BITS) direction integers v_k = m_k 2^(BITS-1-k), with
    m_k = 2^s m_(k-s) xor m_(k-s) xor (xor over i < s of 2^i a_i m_(k-i)) and a_i
    the inner coefficients of the polynomial (Bratley & Fox 1988)."""
    rows = [[1] * SOBOL_BITS]
    for poly, init in _JOE_KUO:
        s, m = len(init), list(init)
        for k in range(s, SOBOL_BITS):
            new = m[k - s] ^ (m[k - s] << s)
            for i in range(1, s):
                if (poly >> (s - i)) & 1:
                    new ^= m[k - i] << i
            m.append(new)
        rows.append(m)
    return np.array(rows, dtype=np.uint32) << np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


_SOBOL_V = _direction_integers()


@dataclass(frozen=True, eq=False)
class Design:
    """A set of distinct points in [0,1]^d.

    Points are distinct when no two of them coincide in the sense of
    `kernels.coincide` (distance at most 1e-14). Designs compare and hash
    by identity, so a design can key a cache.
    """

    points: np.ndarray  # (n, d)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if pts.size and not (pts.min() >= -1e-12 and pts.max() <= 1 + 1e-12):
            raise ValueError("design coordinates must lie in [0,1]")
        # a tree query, not all pairwise distances: O(n) memory for large supports
        if pts.size and len(pts) > 1 and not PointIndex(pts).first_of_each().all():
            raise ValueError("design points must be distinct")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class IntegrationMeasure:
    """Discrete measure: support points and nonnegative weights summing to 1;
    measures compare and hash by identity, as designs do."""

    points: np.ndarray  # (N, d)
    weights: np.ndarray = field(default=None)  # (N,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        w = self.weights
        if w is None:
            w = np.full(len(pts), 1.0 / len(pts))
        else:
            w = np.asarray(w, dtype=float)
            if w.shape != (len(pts),):
                raise DimensionMismatch("weights length must match support size")
            if (w < 0).any():
                raise ValueError("measure weights must be nonnegative")
            total = w.sum()
            if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
                raise ValueError(f"measure weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def uniform_measure(points) -> IntegrationMeasure:
    return IntegrationMeasure(points=np.asarray(points, dtype=float))


def sobol_points(d: int, N: int, scramble_seed: int | None = None) -> np.ndarray:
    """First N points of the d-dimensional Sobol' sequence.

    The points are those of scipy's unscrambled ``qmc.Sobol(d, bits=30)``,
    from the same Joe-Kuo direction numbers, built in O(N d) XORs.
    Unscrambled when ``scramble_seed`` is None; the first unscrambled
    point is the origin. Scrambling is a digital shift: the 30-bit
    integer representation of every point is XOR-ed with a per-dimension
    random mask drawn from a seeded counter-based generator, which
    preserves the digital-net structure and is deterministic per seed.
    """
    if not 1 <= d <= SOBOL_MAX_DIM:
        raise UnsupportedDimension(f"dimension must be in [1, {SOBOL_MAX_DIM}], got {d}")
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > 1 << SOBOL_BITS:
        raise ValueError(f"N must be <= 2^{SOBOL_BITS}")
    # Gray-code order by reflection: x[2^j + i] = v_j xor x[2^j - 1 - i]
    ints = np.zeros((N, d), dtype=np.uint32)
    for j in range((N - 1).bit_length()):
        lo = 1 << j
        hi = min(2 * lo, N)
        ints[lo:hi] = ints[2 * lo - hi:lo][::-1] ^ _SOBOL_V[:d, j]
    if scramble_seed is not None:
        mask = rng.stream(scramble_seed).integers(0, 1 << SOBOL_BITS, size=d, dtype=np.uint64)
        ints ^= mask.astype(np.uint32)
    return ints / 2.0**SOBOL_BITS


def sobol_design(d: int, n: int, scramble_seed: int | None = None) -> Design:
    return Design(points=sobol_points(d, n, scramble_seed))


def sobol_measure(d: int, N: int, scramble_seed: int | None = None) -> IntegrationMeasure:
    return uniform_measure(sobol_points(d, N, scramble_seed))


def regular_grid(d: int, per_axis: int) -> Design:
    """Tensor grid with coordinates (i-1)/(m-1) on each axis."""
    if per_axis < 2:
        raise ValueError("per_axis must be >= 2")
    axis = np.arange(per_axis, dtype=float) / (per_axis - 1)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return Design(points=pts)


def greedy_packing(candidates, n: int, a: float = 0.0, seed: int = 0) -> Design:
    """Relaxed greedy-packing design drawn against a finite candidate set.

    Starts at the cube center. At every step, x* is the candidate
    farthest (in min-distance) from the current design, x_i is a nearest
    design point to x*, and the new point is alpha*x_i + (1-alpha)*x*
    with alpha ~ U[0, a]. Ties are broken by lowest index; a = 0 is pure
    farthest-point sampling. Deterministic given the seed.
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cand.size == 0:
        raise EmptyCandidates("candidate set is empty")
    if not 0 <= a < 1:
        raise ValueError("relaxation a must be in [0, 1)")
    N, d = cand.shape
    if n > N:
        raise TooManyPoints(f"requested {n} points from {N} candidates")
    gen = rng.stream(seed)
    pts = np.empty((n, d))
    pts[0] = 0.5
    dmin = distances(pts[0][None], cand)[0]  # min distance of each candidate to the design
    for k in range(1, n):
        star = int(np.argmax(dmin))  # lowest index on ties
        xstar = cand[star]
        dists = distances(xstar[None], pts[:k])[0]
        nearest = int(np.argmin(dists))
        alpha = gen.uniform(0.0, a) if a > 0 else 0.0
        new = alpha * pts[nearest] + (1.0 - alpha) * xstar
        pts[k] = new
        dmin = np.minimum(dmin, distances(new[None], cand)[0])
    return Design(points=pts)


def nn_distance(eval_points, design: Design | np.ndarray, k: int = 1) -> float:
    """Covering statistic D_n[k]: the largest, over the evaluation set, of
    the distances to the k-th nearest design point. Exact k-nearest search."""
    X = np.atleast_2d(np.asarray(eval_points, dtype=float))
    D = design.points if isinstance(design, Design) else np.atleast_2d(np.asarray(design, float))
    n = len(D)
    if k > n:
        raise KTooLarge(f"k={k} exceeds design size {n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(kth_nearest(X, D, k)[0].max())


def packing_radius(design: Design | np.ndarray) -> float:
    """Half the minimum pairwise distance of the design."""
    X = design.points if isinstance(design, Design) else np.atleast_2d(np.asarray(design, float))
    if len(X) < 2:
        raise SinglePoint("packing radius requires at least two points")
    return 0.5 * min_pairwise_distance(X)


def theta_packing_rule(design: Design) -> float:
    """Short-correlation range rule theta = 1.5546 / (2 PR(X_n))."""
    return 1.5546 / (2.0 * packing_radius(design))


def theta_from_coverage(family: str, D: float, target: float) -> float:
    """Unique theta with psi_family(theta * D) = target, by bisection on log theta.

    Raises NoRoot if the target is outside the reachable (0, 1) range at
    the bracket ends theta in [1e-6, 1e6].
    """
    if not 0 < target < 1:
        raise NoRoot("target must lie strictly between 0 and 1")
    if D <= 0:
        raise ValueError("distance D must be > 0")
    lo, hi = math.log(1e-6), math.log(1e6)
    f_lo = float(correlation(family, math.exp(lo) * D))
    f_hi = float(correlation(family, math.exp(hi) * D))
    if not (f_hi < target < f_lo):
        raise NoRoot(f"target {target} unreachable for family {family} at D={D}")
    # psi is strictly decreasing in theta for fixed D > 0
    while hi - lo > 1e-10 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if float(correlation(family, math.exp(mid) * D)) > target:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


RCOND_FLOOR = 1e-12


def _loo_criterion(record: DesignKernel, y: np.ndarray, mean_mode: str) -> float:
    """Mean squared LOO residual of simple (zero mean) or ordinary
    (constant mean) kriging with the kernel matrix of `record`.

    The residuals are (M y)_i / M_ii (Dubrule 1983), with M = K^{-1} for a
    zero mean and M = K^{-1} - a a^T / s, a = K^{-1} 1, s = 1^T a, for a
    constant one, so only diag(K^{-1}) and one solve are formed.
    """
    F = record.factor
    if numerics.rcond_estimate(F) < RCOND_FLOOR:
        return math.inf  # residuals from a numerically singular solve are garbage
    diag = numerics.inverse_diagonal(F)
    if mean_mode == "zero":
        My = numerics.solve(F, y)
    else:
        My, a = numerics.solve(F, np.column_stack([y, np.ones(len(y))])).T
        s = float(a.sum())  # not DesignKernel.trend's 1^T a: its last bit moves theta_loo
        My = My - a * (float(a @ y) / s)
        diag = diag - a * a / s
    resid = My / diag
    return float(np.mean(resid * resid))


THETA_LOO_GRID = np.logspace(-2, 3, 60)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def theta_loo(y, design: Design, family: str, mean_mode: str = "zero",
              nugget: float = 0.0) -> float:
    """Range parameter minimizing the LOO criterion of the kriging predictor.

    The criterion is the mean squared LOO residual of the simple-kriging
    predictor (``mean_mode="zero"``) or of the ordinary-kriging
    predictor (``mean_mode="constant"``) for the given family, as a
    function of theta; each evaluation builds K from the design's
    distances, computed once per call, factorizes it once and reads the
    residuals from diag(K^{-1}) and one solve, without forming K^{-1}
    (see ``_loo_criterion``). Search: 60 log-spaced nodes on [1e-2, 1e3],
    evaluated on the threads of ``numerics.map_ordered``, then
    golden-section refinement of the bracketing interval to 1e-4
    relative width. Deterministic.
    Raises DegenerateData when the criterion is infinite at every grid node.
    """
    y = np.asarray(y, dtype=float)
    if design.n < 3:
        raise DegenerateData("theta_loo needs at least 3 observations")
    if mean_mode not in ("zero", "constant"):
        raise ValueError("mean_mode must be 'zero' or 'constant'")
    if mean_mode == "constant" and np.ptp(y) == 0.0:
        raise DegenerateData("constant data: all ordinary-kriging LOO residuals are zero")
    D = distances(design.points, design.points)

    def objective(theta: float) -> float:
        # ranges whose kernel matrix is numerically singular are off-limits
        record = DesignKernel(kernel_matrix(KernelSpec(family, theta, nugget), design.points, D))
        try:
            return _loo_criterion(record, y, mean_mode)
        except NotPositiveDefinite:
            return math.inf

    values = numerics.map_ordered(objective, THETA_LOO_GRID)
    if not np.isfinite(values).any():
        raise DegenerateData("the kernel matrix is numerically singular at every grid range")
    i = int(np.argmin(values))
    lo = THETA_LOO_GRID[max(i - 1, 0)]
    hi = THETA_LOO_GRID[min(i + 1, len(THETA_LOO_GRID) - 1)]
    if lo == hi:
        return float(lo)
    # golden section on log theta
    a_, b_ = math.log(lo), math.log(hi)
    c_ = b_ - _GOLDEN * (b_ - a_)
    d_ = a_ + _GOLDEN * (b_ - a_)
    fc, fd = objective(math.exp(c_)), objective(math.exp(d_))
    while (b_ - a_) > 1e-4:
        if fc < fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - _GOLDEN * (b_ - a_)
            fc = objective(math.exp(c_))
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + _GOLDEN * (b_ - a_)
            fd = objective(math.exp(d_))
    best = math.exp(0.5 * (a_ + b_))
    # return the best point actually evaluated
    return min((values[i], float(THETA_LOO_GRID[i])), (objective(best), best))[1]


def clamp_theta(theta: float) -> float:
    """Clamp an estimated range parameter into [5, 50]."""
    return min(max(theta, 5.0), 50.0)


def design_to_csv(design: Design) -> str:
    """One point per row, '%.17g' floats, header x1,...,xd."""
    buf = io.StringIO()
    d = design.d
    buf.write(",".join(f"x{j + 1}" for j in range(d)) + "\r\n")
    for row in design.points:
        buf.write(",".join(f"{v:.17g}" for v in row) + "\r\n")
    return buf.getvalue()


def design_from_csv(text: str) -> Design:
    lines = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip()]
    if not lines or not lines[0].lower().startswith("x1"):
        raise ValueError("design CSV must carry a header row x1,...,xd")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return Design(points=np.asarray(rows, dtype=float))
