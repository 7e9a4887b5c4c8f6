"""Linear predictors and their closed-form leave-one-out residual operators.

Every predictor maps a point x to a weight vector w(x) in R^n over a
fixed design, so that the prediction is w(x)^T y. The LOO residual
vector is linear in y as well: eps_loo = R^T y for an n x n matrix R
computed in closed form per variant (block-inversion identities for the
kriging family, direct algebra for the empirical mean). The kriging
family is SimpleKriging and two one-override variants; each holds K_n in
`predictor.record`, the numerics.DesignKernel the moment bundles use too.
The tests check every closed form against n actual refits
(tests/reference_oracle.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .designs import Design
from .errors import (
    DegenerateData,
    DimensionMismatch,
    LooiseError,
    RankDeficient,
    WeightSimplexViolation,
)
from .kernels import KernelSpec, PointIndex, as_points, cross_matrix, kernel_matrix

RANK_DEFICIENT_COND = 1e12
COND_BOUND_TRUST = 1e-2  # LinearPredictor.loo skips the SVD when n eps beta^2 is at most this


@dataclass(frozen=True)
class LooOperator:
    """Matrix R with eps_loo = R^T y, and a full-rank flag."""

    matrix: np.ndarray
    full_rank: bool


class LinearPredictor:
    """Base class; subclasses bind to a design and stay immutable."""

    design: Design
    sum_to_one = False  # True where w(x)^T 1 = 1 for every x, so that R^T 1 = 0
    reads_distances = False  # True where weights_matrix reads the `dist` it is given

    @property
    def n(self) -> int:
        return self.design.n

    def weights_matrix(self, X, dist=None) -> np.ndarray:
        """(m, n) weight matrix, one row per evaluation point. `dist`, the
        distances of X to the design when the caller has them, is only read;
        predictors whose weights do not depend on distances ignore it."""
        raise NotImplementedError

    def table_on(self, points) -> np.ndarray | None:
        """The weight rows of all of `points`, in order, when the predictor holds
        them as one table; None when it evaluates them."""
        return None

    def weights(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.weights_matrix(x[None, :])[0]

    def _loo_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def _cond_bound(self, R: np.ndarray) -> float:
        """beta with cond_2(R) <= beta (1 + O(n eps beta)) for the computed R; inf if unknown."""
        return np.inf

    @cached_property
    def loo(self) -> LooOperator:
        """R, full rank when cond_2(R) < RANK_DEFICIENT_COND; RankDeficient
        when sigma_(n-1) is below sigma_1 / RANK_DEFICIENT_COND too.

        An SVD decides, unless beta = _cond_bound(R) has n eps beta^2 <=
        COND_BOUND_TRUST: then beta < 7e6, far below 1e12, and the answer, full
        rank and no raise, is the SVD's. A backward-stable SVD returns the
        singular values of R + E, ||E||_2 = O(n eps) ||R||_2, so by Weyl's
        inequality sigma_n >= ||R||_2 / beta (1 - O(n eps beta)) moves by a
        fraction O(n eps beta) <= O(1e-2 / beta) of itself."""
        if self.sum_to_one and self.n == 1:  # its R would be 0 / 0
            raise DegenerateData("the LOO of a one-point sum-to-one predictor is undefined")
        R = self._loo_matrix()
        if len(R) * np.finfo(float).eps * self._cond_bound(R) ** 2 <= COND_BOUND_TRUST:
            return LooOperator(matrix=R, full_rank=True)
        sv = np.linalg.svd(R, compute_uv=False)
        full_rank = bool(sv[-1] > sv[0] / RANK_DEFICIENT_COND)
        # predictors whose weights sum to one satisfy R^T 1 = 0, so one lost
        # direction is structural and benign (S stays invertible); anything
        # beyond that makes the moment matrices degenerate
        if len(sv) >= 2 and not sv[-2] > sv[0] / RANK_DEFICIENT_COND:
            raise RankDeficient(
                "LOO operator is rank deficient beyond the sum-to-one direction"
            )
        return LooOperator(matrix=R, full_rank=full_rank)

    def loo_residuals(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise DimensionMismatch(f"y has shape {y.shape}, expected ({self.n},)")
        return self.loo.matrix.T @ y


class SimpleKriging(LinearPredictor):
    """Posterior-mean predictor for a zero-mean GP: w(x) = K_n^{-1} k_n(x).

    K_n is held in `self.record` (:class:`numerics.DesignKernel`). The weights
    of a block of points are C K_n^{-1}, one multiply by the record's inverse
    that the LOO operator needs anyway, rather than a triangular solve per point.
    """

    reads_distances = True

    def __init__(self, kernel: KernelSpec, design: Design):
        self.kernel = kernel
        self.design = design
        # factorized now, so a singular K_n fails at construction; K_n itself is not kept
        self.record = numerics.DesignKernel.factorized(kernel_matrix(kernel, design.points))

    def _cross(self, X, dist=None) -> np.ndarray:
        """C, the (m, n) correlations of the points X with the design."""
        return cross_matrix(self.kernel, self.design.points, as_points(X), dist)

    def weights_matrix(self, X, dist=None) -> np.ndarray:
        return self._cross(X, dist) @ self.record.inverse

    def _loo_matrix(self) -> np.ndarray:
        M = self.record.inverse
        return M / np.diag(M)[None, :]

    def _cond_bound(self, R: np.ndarray) -> float:
        """beta = ||R||_F max_j |P_jj| ||L||_F^2 for P the computed K^-1 and
        L L^T = K the factor, jitter included. R = P D^-1 with D = diag(P), so
        R^-1 = D P^-1. Two backward-stable triangular solves per column give
        L L^T P = I + G, ||G||_2 = O(n eps) ||L||_F^2 ||P||_F <= O(n eps beta)
        (Higham 2002, ch. 10 and 14), so ||P^-1||_2 <= (1 + O(n eps beta))
        lambda_max(L L^T), and lambda_max <= tr(L L^T) = ||L||_F^2."""
        P, L = self.record.inverse, self.record.factor.lower
        return float(np.linalg.norm(R) * np.abs(np.diag(P)).max() * np.linalg.norm(L) ** 2)


class OrdinaryKriging(SimpleKriging):
    """Kriging with unknown constant mean; weights constrained to sum to one:
    C K_n^{-1} + ((1 - C a) / s) a^T with (a, s) = record.trend = (K_n^{-1} 1, 1^T a)."""

    sum_to_one = True

    def weights_matrix(self, X, dist=None) -> np.ndarray:
        C = self._cross(X, dist)
        a, s = self.record.trend
        mult = (1.0 - C @ a) / s
        return C @ self.record.inverse + mult[:, None] * a[None, :]

    def _loo_matrix(self) -> np.ndarray:
        Mbar = numerics.bordered_inverse(self.record)
        n = self.n
        return Mbar[:n, :n] / np.diag(Mbar)[:n][None, :]

    _cond_bound = LinearPredictor._cond_bound  # R comes from the bordered inverse: the SVD decides


# ---------------------------------------------------------------------------
# Bayesian polynomial regression (tensorized Legendre basis)
# ---------------------------------------------------------------------------

# Multi-index table for the d=2, m=50 basis of total degree 9, ordered by
# decreasing prior weight Lambda (lambda_k geometric in the degree).
POLY_INDEX_TABLE_D2_M50 = (
    (0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1), (0, 3), (3, 0),
    (2, 2), (1, 3), (3, 1), (0, 4), (4, 0), (2, 3), (3, 2), (1, 4), (4, 1), (0, 5),
    (5, 0), (3, 3), (2, 4), (4, 2), (1, 5), (5, 1), (0, 6), (6, 0), (2, 5), (5, 2),
    (3, 4), (4, 3), (1, 6), (6, 1), (0, 7), (7, 0), (3, 5), (5, 3), (2, 6), (6, 2),
    (4, 4), (1, 7), (7, 1), (0, 8), (8, 0), (4, 5), (5, 4), (3, 6), (6, 3), (2, 7),
)


def legendre_orthonormal(degree: int, x) -> np.ndarray:
    """Legendre polynomial of the given degree, orthonormal on [0,1]."""
    x = np.asarray(x, dtype=float)
    t = 2.0 * x - 1.0
    p_prev = np.ones_like(t)
    if degree == 0:
        return p_prev
    p = t.copy()
    for k in range(1, degree):
        p, p_prev = ((2 * k + 1) * t * p - k * p_prev) / (k + 1), p
    return np.sqrt(2.0 * degree + 1.0) * p


def tensor_basis(X, indices) -> np.ndarray:
    """(m_points, n_terms) matrix of tensorized Legendre terms."""
    X = as_points(X)
    idx = np.asarray(indices, dtype=int)
    if idx.shape[1] != X.shape[1]:
        raise DimensionMismatch("multi-index dimension does not match the points")
    max_deg = int(idx.max())
    per_dim = [
        np.stack([legendre_orthonormal(k, X[:, j]) for k in range(max_deg + 1)])
        for j in range(X.shape[1])
    ]
    out = np.ones((X.shape[0], idx.shape[0]))
    for col, multi in enumerate(idx):
        for j, k in enumerate(multi):
            out[:, col] *= per_dim[j][k]
    return out


def poly_prior_weights(indices, c: float = 1000.0, t: float = 2.0) -> np.ndarray:
    """Prior variances Lambda_l = prod_j c * t^(-l_j) for each multi-index."""
    idx = np.asarray(indices, dtype=int)
    return np.prod(c * np.power(float(t), -idx.astype(float)), axis=1)


def poly_basis(d: int, m: int, c: float = 1000.0, t: float = 2.0):
    """Multi-indices and prior weights of the m terms with largest Lambda among
    the C(12 + d, d) multi-indices of total degree at most 12.

    The d=2, m=50 case returns the shipped table; other sizes select the
    m largest prior weights with a deterministic tie-break (total degree,
    then lexicographic). Raises ValueError for m outside [1, C(12 + d, d)],
    for a scale c <= 0, under which no Lambda is a variance, or for a decay
    t < 1, under which Lambda would grow with the degree.
    """
    max_deg = 12
    terms = math.comb(max_deg + d, d)
    if not 1 <= m <= terms:
        raise ValueError(f"poly_basis: m = {m} is outside [1, {terms}], the terms of "
                         f"total degree at most {max_deg} in dimension {d}")
    if not c > 0.0:
        raise ValueError(f"poly_basis: scale c = {c} is not positive")
    if not t >= 1.0:
        raise ValueError(f"poly_basis: decay t = {t} is below 1")
    if d == 2 and m == 50:
        idx = np.asarray(POLY_INDEX_TABLE_D2_M50, dtype=int)
        return idx, poly_prior_weights(idx, c, t)
    indices = [()]
    for _ in range(d):  # one more coordinate, keeping the total degree at most max_deg
        indices = [i + (k,) for i in indices for k in range(max_deg + 1 - sum(i))]
    all_idx = np.array(indices, dtype=int)
    lam = poly_prior_weights(all_idx, c, t)
    order = sorted(range(len(all_idx)),
                   key=lambda i: (-lam[i], int(all_idx[i].sum()), tuple(all_idx[i])))
    keep = np.asarray(order[:m], dtype=int)
    return all_idx[keep], lam[keep]


class BayesPolynomial(SimpleKriging):
    """Posterior-mean polynomial predictor with a Gaussian prior on the
    coefficients and i.i.d. observation noise; equivalently SimpleKriging
    under the degenerate kernel sum_l Lambda_l phi_l(x) phi_l(x') plus a
    nugget of noise_var, so only K_n and the cross-correlations differ."""

    reads_distances = False

    def __init__(self, indices, prior_diag, noise_var: float, design: Design):
        if not noise_var >= 0.0:
            raise ValueError(f"BayesPolynomial: noise variance {noise_var} is negative")
        self.indices = np.asarray(indices, dtype=int)
        self.prior_diag = np.asarray(prior_diag, dtype=float)
        self.noise_var = float(noise_var)
        self.design = design
        self._phi = tensor_basis(design.points, self.indices)
        K = (self._phi * self.prior_diag) @ self._phi.T + self.noise_var * np.eye(design.n)
        self.record = numerics.DesignKernel.factorized(K)

    def _cross(self, X, dist=None) -> np.ndarray:
        return (tensor_basis(as_points(X), self.indices) * self.prior_diag) @ self._phi.T


class EmpiricalMean(LinearPredictor):
    """Constant predictor equal to the mean of the observations."""

    sum_to_one = True

    def __init__(self, design: Design):
        self.design = design

    def weights_matrix(self, X, dist=None) -> np.ndarray:
        X = as_points(X)
        return np.full((X.shape[0], self.n), 1.0 / self.n)

    def _loo_matrix(self) -> np.ndarray:
        n = self.n
        return (n * np.eye(n) - np.ones((n, n))) / (n - 1)


class FixedMixture(LinearPredictor):
    """Fixed convex (or affine) combination of predictors on one design."""

    def __init__(self, components, nu):
        self.components = list(components)
        self.nu = np.asarray(nu, dtype=float)
        if len(self.components) != len(self.nu):
            raise DimensionMismatch("one weight per component required")
        if not abs(self.nu.sum() - 1.0) <= 1e-12:  # NaN weights fail too
            raise WeightSimplexViolation("mixture weights must sum to 1")
        self.design = self.components[0].design
        index = PointIndex(self.design.points)
        for c in self.components[1:]:
            if c.n != self.n or not (index.lookup(c.design.points) == np.arange(c.n)).all():
                raise DimensionMismatch("mixture components must share the design")

    def weights_matrix(self, X, dist=None) -> np.ndarray:
        # the components share the design only up to coincidence, so each
        # computes its own distances
        out = self.nu[0] * self.components[0].weights_matrix(X)
        for nu_t, comp in zip(self.nu[1:], self.components[1:]):
            out += nu_t * comp.weights_matrix(X)
        return out

    def _loo_matrix(self) -> np.ndarray:
        out = self.nu[0] * self.components[0].loo.matrix
        for nu_t, comp in zip(self.nu[1:], self.components[1:]):
            out += nu_t * comp.loo.matrix
        return out


class TableWeights(LinearPredictor):
    """Black-box linear predictor given by a weight table over fixed points.

    Weight rows are looked up under the one coincidence rule
    (:class:`~looise.kernels.PointIndex`), so evaluation is only possible
    on (subsets of) the tabulated support, whose points are distinct. A LOO
    matrix may be supplied alongside; without one the LOO operator is unavailable.
    """

    def __init__(self, support, table, design: Design, loo_matrix=None):
        self.design = design
        self.support = as_points(support)
        self.table = np.asarray(table, dtype=float)
        if self.table.shape != (len(self.support), design.n):
            raise DimensionMismatch("weight table must be (len(support), n)")
        self._index = PointIndex(self.support)
        if pairs := self._index.coinciding_pairs():
            raise ValueError("weight-table support points %d and %d coincide" % pairs[0])
        self._loo_given = None
        if loo_matrix is not None:
            self._loo_given = np.asarray(loo_matrix, dtype=float)
            if self._loo_given.shape != (design.n, design.n):
                raise DimensionMismatch("LOO matrix must be n x n")

    def weights_matrix(self, X, dist=None) -> np.ndarray:
        return self.table[self._index.rows(X)]

    def table_on(self, points) -> np.ndarray | None:
        """The table itself when `points` are its support, whose points are
        distinct: each point then looks up its own row."""
        same = points is self.support or np.array_equal(points, self.support)
        return self.table if same else None

    def _loo_matrix(self) -> np.ndarray:
        if self._loo_given is None:
            raise LooiseError("no LOO matrix supplied for the weight-table predictor")
        return self._loo_given
