"""Geometry, isotropic correlation kernels and kernel matrices.

Euclidean distances come from :func:`distances`, which sums each pair's
squared coordinate differences in coordinate order, so a distance matrix
on one point set is exactly symmetric. Callers that form several kernels
on the same points compute the distances once and pass them in
(``dist``). The nearest-point searches (:func:`kth_nearest`,
:func:`min_pairwise_distance`) hold a bounded block of distances at a
time. Two points coincide at distance ``COINCIDENCE_TOL`` or less
(:func:`coincide`), and :class:`PointIndex` finds known points by that
rule. A kernel is a :class:`KernelSpec` (family, range parameter theta,
optional nugget).
The correlation between two points is ``psi_family(theta * ||x - x'||)``
plus the nugget when the points coincide. The nugget models observation
noise: it enters the design kernel matrix (diagonal) but never the
cross-correlation matrix to prediction points, even when such a point
coincides with a design point, because predictions target the
noise-free process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DimensionMismatch, DomainViolation, DuplicatePoints

FAMILIES = ("matern12", "matern32", "matern52", "gaussian", "inverse-multiquadric")

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)

# Distance at or below which two points coincide.
COINCIDENCE_TOL = 1e-14

# Entries per step of distances() and cross_matrix() (their scratch) and per block
# of queries of a nearest-point search; queries a PointIndex looks up per block.
CHUNK_ENTRIES = 1 << 15
SEARCH_ENTRIES = 1 << 18
QUERY_BLOCK = 1024


def distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of X (m, d) and Y (n, d).

    Each entry is the square root of the squared coordinate differences
    summed in coordinate order, one pair at a time in effect; rows are
    filled in chunks, so the scratch memory is bounded whatever m. Each
    x_k - y_k is the product [x_k, 1] [1, -y_k]^T: both terms are exact and
    their sum is rounded once, so a matrix product, faster than a broadcast
    subtraction, keeps the subtraction's bits.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise DimensionMismatch(f"cannot pair points of shapes {X.shape} and {Y.shape}")
    (m, d), n = X.shape, len(Y)
    if d == 0:
        return np.zeros((m, n))
    YB = np.ones((d, 2, n))
    YB[:, 1] = -Y.T
    D = np.zeros((m, n))
    step = max(1, CHUNK_ENTRIES // max(n, 1))
    diff, XA = np.empty((min(step, m), n)), np.ones((min(step, m), 2))
    for lo in range(0, m, step):
        part = D[lo:lo + step]
        tmp, xa = diff[:len(part)], XA[:len(part)]
        for k in range(d):
            xa[:, 0] = X[lo:lo + step, k]
            part += np.square(np.matmul(xa, YB[k], out=tmp), out=tmp)
    return np.sqrt(D, out=D)


def _search_blocks(m: int, n: int):
    """Row slices of an (m, n) distance search, SEARCH_ENTRIES entries a block."""
    step = max(1, SEARCH_ENTRIES // max(n, 1))
    return [slice(lo, min(lo + step, m)) for lo in range(0, m, step)]


def kth_nearest(X, Y, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """For each row of X, the distance to its k-th nearest row of Y and that row."""
    X, Y = as_points(X), as_points(Y)
    dist, rows = np.empty(len(X)), np.empty(len(X), dtype=np.intp)
    for block in _search_blocks(len(X), len(Y)):
        D = distances(X[block], Y)
        rows[block] = np.argpartition(D, k - 1, axis=1)[:, k - 1]
        dist[block] = D[np.arange(len(D)), rows[block]]
    return dist, rows


def min_pairwise_distance(points) -> float:
    """Smallest distance between two rows of `points`; inf for a single point."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    best = math.inf
    for block in _search_blocks(len(X), len(X)):
        D = distances(X[block], X)
        D[np.arange(len(X)) <= np.arange(block.start, block.stop)[:, None]] = np.inf  # i < j only
        best = min(best, float(D.min()))
    return best


def coincide(r):
    """The one rule for when two points coincide, for a distance or an array of them."""
    return r <= COINCIDENCE_TOL


def _paired_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """||A_i - B_i|| row by row, summed in coordinate order as in distances()."""
    s = np.zeros(len(A))
    for k in range(A.shape[1]):
        t = A[:, k] - B[:, k]
        s += t * t
    return np.sqrt(s)


class PointIndex:
    """Known points, looked up under the one coincidence rule.

    The points are sorted by their projection onto a fixed direction v of
    positive components. Two points that coincide project at most
    |v| COINCIDENCE_TOL apart, give or take rounding, so a query is
    compared only with the points whose projection lies within a window
    of twice that plus a rounding bound: memory stays O(n).
    """

    def __init__(self, points):
        self.points = as_points(points)
        d = self.points.shape[1]
        self._v = rng.stream(0x5EED, d).uniform(1.0, 2.0, size=d)
        proj = self.points @ self._v
        self._order = np.argsort(proj, kind="stable")
        self._proj = proj[self._order]
        self._scale = float(np.abs(self.points).max(initial=0.0)) * float(self._v.sum())

    def _check(self, X) -> np.ndarray:
        X = as_points(X)
        if X.shape[1] != self.points.shape[1]:
            raise DimensionMismatch(f"expected points of dimension {self.points.shape[1]}")
        return X

    def _coinciding(self, X: np.ndarray):
        """(query row, known row, distance) of every pair of a row of X and a
        known point that coincide."""
        scale = max(self._scale, float(np.abs(X).max(initial=0.0)) * float(self._v.sum()))
        # the window: |v| COINCIDENCE_TOL, doubled, plus a bound on the rounding of both projections
        half = 2.0 * COINCIDENCE_TOL * float(np.linalg.norm(self._v)) \
            + 4.0 * (X.shape[1] + 1) * np.finfo(float).eps * scale
        found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
        for first in range(0, len(X), QUERY_BLOCK):
            proj = X[first:first + QUERY_BLOCK] @ self._v
            lo = np.searchsorted(self._proj, proj - half, "left")
            counts = np.searchsorted(self._proj, proj + half, "right") - lo
            q = np.repeat(np.arange(first, first + len(proj)), counts)
            start = np.repeat(lo - (np.cumsum(counts) - counts), counts)
            rows = self._order[start + np.arange(len(q))]
            dist = _paired_distances(X[q], self.points[rows])
            keep = coincide(dist)
            found.append((q[keep], rows[keep], dist[keep]))
        return tuple(np.concatenate(parts) for parts in zip(*found))

    def lookup(self, X) -> np.ndarray:
        """For each row of X, the row of the nearest known point it coincides
        with (the lowest on ties), or -1 where it coincides with none."""
        X = self._check(X)
        q, rows, dist = self._coinciding(X)
        order = np.lexsort((rows, dist, q))
        first = order[np.unique(q[order], return_index=True)[1]]
        out = np.full(len(X), -1, dtype=np.intp)
        out[q[first]] = rows[first]
        return out

    def nearest(self, X) -> tuple[np.ndarray, np.ndarray]:
        """For each row of X, the distance to its nearest known point and that point's row."""
        return kth_nearest(self._check(X), self.points)

    def rows(self, X) -> np.ndarray:
        """Rows of the known points that the rows of X coincide with; a row that
        coincides with none raises DomainViolation naming the nearest distance."""
        X = self._check(X)
        rows = self.lookup(X)
        if (rows < 0).any():
            i = int(np.argmax(rows < 0))
            dist = float(self.nearest(X[i:i + 1])[0][0])
            raise DomainViolation(f"point {X[i].tolist()} is {dist:.3g} from the "
                                  f"nearest known point (coincidence: <= {COINCIDENCE_TOL:g})")
        return rows

    def coinciding_pairs(self) -> list[tuple[int, int]]:
        """The (i, j), i < j, of every two known points that coincide, in order."""
        i, j, _ = self._coinciding(self.points)
        return sorted(zip(i[i < j].tolist(), j[i < j].tolist()))

    def first_of_each(self) -> np.ndarray:
        """Mask of the known points that coincide with no earlier kept one."""
        keep = np.ones(len(self.points), dtype=bool)
        for a, b in self.coinciding_pairs():
            keep[b] &= not keep[a]
        return keep


@dataclass(frozen=True)
class KernelSpec:
    """Isotropic correlation family with range parameter and optional nugget."""

    family: str
    theta: float
    nugget: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        if not 0 < self.theta < math.inf:
            raise ValueError(f"theta must be > 0 and finite, got {self.theta!r}")
        if not 0 <= self.nugget < math.inf:
            raise ValueError(f"nugget must be >= 0 and finite, got {self.nugget!r}")


def correlation(family: str, s, out=None):
    """psi_family(s) for scaled distance s = theta * r, vectorized over s; written
    into `out`, which may be `s` itself, with the same operations either way."""
    s = np.asarray(s, dtype=float)
    out = np.empty(s.shape) if out is None else out
    if family == "matern12":
        return np.exp(np.negative(s, out=out), out=out)
    if family == "matern32":
        t = np.multiply(_SQRT3, s, out=out)
        e = np.negative(t, out=np.empty(s.shape))
        return np.multiply(np.add(1.0, t, out=out), np.exp(e, out=e), out=out)
    if family == "matern52":
        t = np.multiply(_SQRT5, s, out=np.empty(s.shape))
        sq = np.multiply(5.0 / 3.0, s, out=np.empty(s.shape))
        sq *= s  # read s before out, which may alias it, is written
        np.add(np.add(1.0, t, out=out), sq, out=out)
        return np.multiply(out, np.exp(np.negative(t, out=t), out=t), out=out)
    if family == "gaussian":
        return np.exp(np.multiply(np.negative(s), s, out=out), out=out)
    if family == "inverse-multiquadric":
        return np.divide(1.0, np.add(1.0, np.multiply(s, s, out=out), out=out), out=out)
    raise ValueError(f"unknown kernel family {family!r}")


def kernel_eval(spec: KernelSpec, x, x2) -> float:
    """Correlation between two points; adds the nugget iff they coincide."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape:
        raise DimensionMismatch(f"point dimensions differ: {x.shape} vs {x2.shape}")
    r = float(distances(x.reshape(1, -1), x2.reshape(1, -1))[0, 0])
    val = float(correlation(spec.family, spec.theta * r))
    if spec.nugget and coincide(r):
        val += spec.nugget
    return val


def as_points(X) -> np.ndarray:
    """X as an (n, d) array of points; a 1-D X is n points in one dimension."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionMismatch(f"expected an (n, d) array of points, got shape {X.shape}")
    return X


def kernel_matrix(spec: KernelSpec, X, dist=None) -> np.ndarray:
    """Kernel matrix on the design X, exactly symmetric as distances(X, X) is;
    diagonal equals 1 + nugget. `dist`, the distances(X, X) of a caller that
    builds several kernels on X, is only read.

    Raises
    ------
    DuplicatePoints
        If the nugget is zero and two points coincide (the matrix would
        be singular).
    """
    X = as_points(X)
    D = distances(X, X) if dist is None else dist
    same = coincide(D)
    if spec.nugget == 0.0 and np.count_nonzero(same) > len(X):
        i, j = np.argwhere(np.triu(same, 1))[0]
        raise DuplicatePoints(f"points {i} and {j} coincide and the nugget is zero")
    K = correlation(spec.family, spec.theta * D)
    if spec.nugget:
        K = K + spec.nugget * same
    return K


def cross_matrix(spec: KernelSpec, X, Xnew, dist=None) -> np.ndarray:
    """(m, n) matrix of correlations between new points (rows) and the design.
    `dist`, the distances(Xnew, X) of a caller that forms several kernels'
    cross matrices on the same points, is only read.

    The nugget is never added here, even at exact coincidence: the target
    is a new realization of the noise-free process.
    """
    X = as_points(X)
    Xnew = as_points(Xnew)
    if X.shape[1] != Xnew.shape[1]:
        raise DimensionMismatch(
            f"design dimension {X.shape[1]} != point dimension {Xnew.shape[1]}"
        )
    S = distances(Xnew, X) if dist is None else np.empty(dist.shape)
    src = S if dist is None else dist
    step = max(1, CHUNK_ENTRIES // max(S.shape[1], 1))  # correlation's temporaries stay small
    for lo in range(0, len(S), step):
        part = np.multiply(src[lo:lo + step], spec.theta, out=S[lo:lo + step])
        correlation(spec.family, part, out=part)
    return S
