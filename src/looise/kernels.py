"""Geometry, isotropic correlation kernels and kernel matrices.

Euclidean distances come from :func:`distances` (``cdist``), except in
:func:`min_pairwise_distance` (``pdist``) and the nearest-point queries of
:class:`PointIndex` and :func:`designs.nn_distance` (``cKDTree``). Two points
coincide at distance ``COINCIDENCE_TOL`` or less (:func:`coincide`), and
:class:`PointIndex` finds known points by that rule. A kernel is a
:class:`KernelSpec` (family, range parameter theta, optional nugget).
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
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from .errors import DimensionMismatch, DomainViolation, DuplicatePoints

FAMILIES = ("matern12", "matern32", "matern52", "gaussian", "inverse-multiquadric")

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)

# Distance at or below which two points coincide.
COINCIDENCE_TOL = 1e-14


def distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of X (m, d) and Y (n, d)."""
    return cdist(X, Y)


def min_pairwise_distance(points) -> float:
    """Smallest distance between two rows of `points`; inf for a single point."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    return float(pdist(X).min()) if len(X) > 1 else math.inf


def coincide(r):
    """The one rule for when two points coincide, for a distance or an array of them."""
    return r <= COINCIDENCE_TOL


class PointIndex:
    """Known points, looked up under the one coincidence rule."""

    def __init__(self, points):
        self.points = as_points(points)
        self._tree = cKDTree(self.points)

    def nearest(self, X) -> tuple[np.ndarray, np.ndarray]:
        """For each row of X, the distance to its nearest known point and that point's row."""
        X = as_points(X)
        if X.shape[1] != self.points.shape[1]:
            raise DimensionMismatch(f"expected points of dimension {self.points.shape[1]}")
        return self._tree.query(X)

    def rows(self, X) -> np.ndarray:
        """Rows of the known points that the rows of X coincide with; a row that
        coincides with none raises DomainViolation naming the nearest distance."""
        dist, rows = self.nearest(X)
        if not coincide(dist).all():
            i = int(np.argmin(coincide(dist)))
            raise DomainViolation(f"point {as_points(X)[i].tolist()} is {dist[i]:.3g} from the "
                                  f"nearest known point (coincidence: <= {COINCIDENCE_TOL:g})")
        return rows

    def first_of_each(self) -> np.ndarray:
        """Mask of the known points that coincide with no earlier kept one."""
        keep = np.ones(len(self.points), dtype=bool)
        pairs = self._tree.query_pairs(COINCIDENCE_TOL, output_type="ndarray")
        for i, j in sorted(pairs.tolist()):  # i < j
            keep[j] &= not keep[i]
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
        if not self.theta > 0:
            raise ValueError("theta must be > 0")
        if self.nugget < 0:
            raise ValueError("nugget must be >= 0")


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


def kernel_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric kernel matrix on the design X; diagonal equals 1 + nugget.

    Raises
    ------
    DuplicatePoints
        If the nugget is zero and two points coincide (the matrix would
        be singular).
    """
    X = as_points(X)
    D = distances(X, X)
    same = coincide(D)
    if spec.nugget == 0.0 and np.count_nonzero(same) > len(X):
        i, j = np.argwhere(np.triu(same, 1))[0]
        raise DuplicatePoints(f"points {i} and {j} coincide and the nugget is zero")
    K = correlation(spec.family, spec.theta * D)
    if spec.nugget:
        K = K + spec.nugget * same
    return 0.5 * (K + K.T)


def cross_matrix(spec: KernelSpec, X, Xnew) -> np.ndarray:
    """(m, n) matrix of correlations between new points (rows) and the design.

    The nugget is never added here, even at exact coincidence: the target
    is a new realization of the noise-free process.
    """
    X = as_points(X)
    Xnew = as_points(Xnew)
    if X.shape[1] != Xnew.shape[1]:
        raise DimensionMismatch(
            f"design dimension {X.shape[1]} != point dimension {Xnew.shape[1]}"
        )
    S = distances(Xnew, X)
    S *= spec.theta
    return correlation(spec.family, S, out=S)
