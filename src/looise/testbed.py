"""Data generators and benchmark functions for validating the estimators.

All randomness is seeded through counter-based streams (see
:mod:`looise.rng`), one stream per replication, so studies are
reproducible and order-independent under parallel execution.
"""

from __future__ import annotations

import numpy as np

from . import numerics, rng
from .designs import IntegrationMeasure, sobol_points
from .errors import DomainViolation
from .kernels import KernelSpec, PointIndex, cross_matrix, kernel_matrix
from .moments import WeightSource, support_pass


def sample_gp(kernel: KernelSpec, X, seed: int, *stream_path: int) -> np.ndarray:
    """One zero-mean unit-variance GP realization on the points X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    F = numerics.spd_factorize(kernel_matrix(kernel, X))
    z = rng.stream(seed, *stream_path).standard_normal(len(X))
    return F.lower @ z


def add_noise(y, gamma: float, seed: int, *stream_path: int) -> np.ndarray:
    """Observations plus i.i.d. centered Gaussian noise of standard deviation gamma."""
    y = np.asarray(y, dtype=float)
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0:
        return y.copy()
    return y + gamma * rng.stream(seed, *stream_path).standard_normal(y.shape)


class GpSampleFunction:
    """A GP realization evaluated lazily, with caching.

    The first evaluation draws a joint sample on the requested points;
    later evaluations return cached values for known points and extend
    the realization by conditional sampling for new ones. A point is
    known when it coincides with a drawn one (``kernels.coincide``).
    Values never change once drawn; the realization is deterministic for
    a fixed sequence of evaluation calls.
    """

    def __init__(self, kernel: KernelSpec, seed: int):
        self.kernel = kernel
        self.seed = seed
        self._values = None
        self._index = None  # PointIndex of the drawn points
        self._calls = 0

    def __call__(self, X) -> np.ndarray:
        return self.evaluate(X)

    def evaluate(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        new = X
        if self._index is not None:
            new = X[self._index.lookup(X) < 0]
        if len(new):
            fresh = PointIndex(np.unique(new, axis=0))
            self._extend(fresh.points[fresh.first_of_each()])
        return self._values[self._index.rows(X)]

    def _extend(self, new_pts: np.ndarray) -> None:
        gen_path = (self._calls,)
        self._calls += 1
        if self._index is None:
            self._values = sample_gp(self.kernel, new_pts, self.seed, *gen_path)
            self._index = PointIndex(new_pts)
            return
        points = self._index.points
        Fc = numerics.spd_factorize(kernel_matrix(self.kernel, points))
        Knc = cross_matrix(self.kernel, points, new_pts)
        mean = Knc @ numerics.solve(Fc, self._values)
        cov = kernel_matrix(self.kernel, new_pts) - Knc @ numerics.solve(Fc, Knc.T)
        cov = 0.5 * (cov + cov.T) + 1e-12 * np.eye(len(new_pts))
        L = numerics.spd_factorize(cov).lower
        z = rng.stream(self.seed, *gen_path).standard_normal(len(new_pts))
        self._values = np.concatenate([self._values, mean + L @ z])
        self._index = PointIndex(np.vstack([points, new_pts]))


class RandomInterpolant:
    """Random smooth test function: a GP draw on a small hidden design,
    extended everywhere as the kriging interpolant of that draw."""

    def __init__(self, anchors: np.ndarray, kernel_interp: KernelSpec, values: np.ndarray):
        self.anchors = anchors
        self.kernel = kernel_interp
        self.values = values
        F = numerics.spd_factorize(kernel_matrix(kernel_interp, anchors))
        self._alpha = numerics.solve(F, values)

    def __call__(self, X) -> np.ndarray:
        return self.evaluate(X)

    def evaluate(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return cross_matrix(self.kernel, self.anchors, X) @ self._alpha


def random_fm(m: int, d: int, kernel_sim: KernelSpec, kernel_interp: KernelSpec,
              seed: int, *stream_path: int) -> RandomInterpolant:
    """Random function of controllable complexity.

    Draws a GP(0, kernel_sim) sample on the first m points of a seeded
    scrambled Sobol' sequence and interpolates it with kernel_interp.
    Larger m gives rougher functions.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    anchors = sobol_points(d, m, scramble_seed=seed)
    values = sample_gp(kernel_sim, anchors, seed, *stream_path)
    return RandomInterpolant(anchors, kernel_interp, values)


# ---------------------------------------------------------------------------
# Deterministic benchmark models
# ---------------------------------------------------------------------------

_ENV_M = 10.0
_ENV_D = 0.07
_ENV_L = 1.505
_ENV_TAU = 30.1525


def _check_unit_box(X: np.ndarray, d: int) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != d:
        raise DomainViolation(f"expected points in [0,1]^{d}, got dimension {X.shape[1]}")
    if X.min() < -1e-12 or X.max() > 1 + 1e-12:
        raise DomainViolation(f"coordinates outside [0,1]^{d}")
    return np.clip(X, 0.0, 1.0)


def environmental_values(X) -> np.ndarray:
    """Pollutant concentration after a two-release chemical spill.

    Inputs in [0,1]^2 map to location s in [0,3] and time t in [1,60].
    The second release enters only for t past the spill time. Sharp peak
    near the center of the domain; values roughly in [0, 70].
    """
    X = _check_unit_box(X, 2)
    s = 3.0 * X[:, 0]
    t = 1.0 + 59.0 * X[:, 1]
    c = _ENV_M / np.sqrt(4.0 * np.pi * _ENV_D * t) * np.exp(-s**2 / (4.0 * _ENV_D * t))
    late = t > _ENV_TAU
    dt = np.where(late, t - _ENV_TAU, 1.0)
    c2 = _ENV_M / np.sqrt(4.0 * np.pi * _ENV_D * dt) * np.exp(
        -((s - _ENV_L) ** 2) / (4.0 * _ENV_D * dt)
    )
    c = c + np.where(late, c2, 0.0)
    return np.sqrt(4.0 * np.pi) * c


def environmental(x) -> float:
    return float(environmental_values(np.atleast_2d(np.asarray(x, float)))[0])


_PISTON_LO = np.array([30.0, 0.005, 0.002, 1000.0])
_PISTON_SPAN = np.array([30.0, 0.015, 0.008, 4000.0])
_PISTON_P0 = 1e5
_PISTON_TA = 293.0
_PISTON_T0 = 350.0


def piston4d_values(X) -> np.ndarray:
    """Cycle time of a piston, reduced to its four influential inputs.

    Inputs in [0,1]^4 map to weight M, surface area S, initial gas
    volume V0 and spring constant k; pressure and the two temperatures
    are fixed at the midpoints of their usual ranges.
    """
    X = _check_unit_box(X, 4)
    phys = _PISTON_LO + _PISTON_SPAN * X
    M, S, V0, k = phys[:, 0], phys[:, 1], phys[:, 2], phys[:, 3]
    A = _PISTON_P0 * S + 19.62 * M - k * V0 / S
    V = S / (2.0 * k) * (np.sqrt(A**2 + 4.0 * k * _PISTON_P0 * V0 * _PISTON_TA / _PISTON_T0) - A)
    denom = k + S**2 * _PISTON_P0 * V0 * _PISTON_TA / (_PISTON_T0 * V**2)
    return 2.0 * np.pi * np.sqrt(M / denom)


def piston4d(x) -> float:
    return float(piston4d_values(np.atleast_2d(np.asarray(x, float)))[0])


def omega_n(y) -> float:
    """Empirical variance of the observations (1/n denominator)."""
    return float(np.var(np.asarray(y, dtype=float)))


def true_ise(f, pred, y, measure: IntegrationMeasure) -> float:
    """Measure-weighted sum of squared prediction errors of `pred` for a known function.

    `f` may be a callable/test function evaluated on the support, or an
    array of precomputed values aligned with it.
    """
    fvals = f(measure.points) if callable(f) else f
    return support_pass([], [(fvals, WeightSource(pred, measure), y)])[0]
