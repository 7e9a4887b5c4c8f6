"""ISE estimators, exact performance analysis and trend correction.

The estimators are linear (or clamped-linear) forms in the squared LOO
residuals. The unweighted mean is the classical criterion; the weighted
variants solve S gamma = b (best linear) or the same problem under the
unbiasedness constraint gamma^T u = J (best linear unbiased). Reported
estimates clamp the pointwise error predictions at zero by default;
the unclamped quadratic forms remain available, and the exact
bias/variance/MSE analysis always refers to them (it is valid for
linear forms only).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateConstraint,
    DimensionMismatch,
    SingularGram,
)
from .moments import MomentBundle, pointwise_c_rho

__all__ = [
    "IseEstimate",
    "PerformanceReport",
    "ise_loo",
    "blp_pointwise",
    "ise_blp",
    "blup_weights",
    "ise_blup",
    "performance_report",
    "trend_centering",
    "trend_corrected_ise",
    "optimal_mixture_weights",
]


@dataclass(frozen=True)
class IseEstimate:
    value: float
    estimator: str  # loo | blp | blp+ | blup | blup+
    gamma: np.ndarray | None = None  # None for clamped estimates
    clamped: bool = False
    trend_correction_applied: bool = False
    trend_amount: float = 0.0


@dataclass(frozen=True)
class PerformanceReport:
    """Exact moments of a linear estimator gamma^T eps_loo^{o2} under a
    generating kernel (through its moment bundle)."""

    e_ise: float  # J, the expected ISE of the predictor, per unit process variance
    e_estimate: float  # gamma^T u
    bias: float
    variance: float
    mse: float
    vn_included: bool


def ise_loo(eps_loo) -> IseEstimate:
    """Unweighted mean of the squared LOO residuals."""
    eps = np.asarray(eps_loo, dtype=float)
    n = len(eps)
    return IseEstimate(value=float(np.mean(eps * eps)), estimator="loo",
                       gamma=np.full(n, 1.0 / n))


def _check_eps(bundle: MomentBundle, eps_loo, name: str = "eps_loo") -> np.ndarray:
    eps = np.asarray(eps_loo, dtype=float)
    if eps.shape != (bundle.n,):
        raise DimensionMismatch(f"{name} has shape {eps.shape}, expected ({bundle.n},)")
    return eps


def blp_pointwise(bundle: MomentBundle, eps_loo, x, clamp: bool = True) -> float:
    """Best linear estimate of the squared prediction error at one point."""
    eps = _check_eps(bundle, eps_loo)
    c_rows, _ = pointwise_c_rho(bundle, np.atleast_2d(np.asarray(x, float)))
    val = float(c_rows[0] @ bundle.solve_S(eps * eps))
    return max(val, 0.0) if clamp else val


def ise_blp(bundle: MomentBundle, eps_loo, clamp: bool = True) -> IseEstimate:
    """Best linear estimate of the ISE from squared LOO residuals.

    Unclamped, the estimate is the quadratic form gamma^T eps^{o2} with
    gamma = S^{-1} b; clamped (default), it is the measure-weighted sum of
    the pointwise estimates clamped at zero, and gamma is None (not solved).
    """
    eps_sq = _check_eps(bundle, eps_loo) ** 2
    if clamp:
        return IseEstimate(bundle.clamped_integrals(eps_sq)[0], "blp+", clamped=True)
    gamma = bundle.gamma_blp
    return IseEstimate(value=float(gamma @ eps_sq), estimator="blp", gamma=gamma)


def blup_weights(bundle: MomentBundle) -> np.ndarray:
    """Weights of the unbiased variant: the BLP weights plus the
    correction enforcing gamma^T u = J exactly."""
    g_blp = bundle.gamma_blp
    h, q = bundle.constraint()
    return g_blp + (bundle.J - float(bundle.u @ g_blp)) / q * h


def ise_blup(bundle: MomentBundle, eps_loo, clamp: bool = True) -> IseEstimate:
    """Unbiased weighted estimate (exact unbiasedness under the assumed kernel)."""
    eps_sq = _check_eps(bundle, eps_loo) ** 2
    if clamp:
        value = bundle.clamped_integrals(eps_sq)[1]
        bundle.constraint()  # raises DegenerateConstraint where value is None
        return IseEstimate(value, "blup+", clamped=True)
    gamma = blup_weights(bundle)
    return IseEstimate(value=float(gamma @ eps_sq), estimator="blup", gamma=gamma)


def performance_report(gamma, bundle: MomentBundle) -> PerformanceReport:
    """Exact bias, variance and MSE of gamma^T eps_loo^{o2} under the
    generating kernel of `bundle`.

    The V term (variance of the ISE itself) enters the MSE only when the
    bundle was built with compute_Vn; the report records which
    convention applies. gamma may come from any assumed kernel.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (bundle.n,):
        raise DimensionMismatch(f"gamma has shape {gamma.shape}, expected ({bundle.n},)")
    V = bundle.V if bundle.V is not None else 0.0
    e_est = float(gamma @ bundle.u)
    e_ise = bundle.J
    # equals 2 gamma^T (R^T K R)^{o2} gamma for a single kernel, and adds the
    # between-component spread for mixtures
    var = float(gamma @ bundle.S @ gamma) - float(gamma @ bundle.u) ** 2
    mse = (float(gamma @ bundle.S @ gamma) - 2.0 * float(gamma @ bundle.b)
           + bundle.J**2 + 2.0 * V)
    return PerformanceReport(e_ise=e_ise, e_estimate=e_est, bias=e_est - e_ise,
                             variance=var, mse=mse, vn_included=bundle.V is not None)


def trend_centering(bundle: MomentBundle, y) -> tuple[float, np.ndarray]:
    """The BLUE tau of a constant mean under the bundle's own covariance
    sum_k nu_k K_k, and the LOO residuals R^T (y - tau) of the centered data.

    The independent-limit bundle has no covariance: BundleMismatch.
    """
    record = bundle.covariance
    y = _check_eps(bundle, y, "y")
    a, s = record.trend
    if abs(s) < 1e-14:
        raise DegenerateConstraint("1^T Sigma^{-1} 1 is numerically zero")
    tau = float(a @ y) / s
    return tau, bundle.R.T @ (y - tau)


def trend_corrected_ise(bundle: MomentBundle, y, estimator: str = "blp",
                        clamp: bool = True) -> IseEstimate:
    """ISE estimate under a GP with unknown constant mean.

    The mean is estimated by its BLUE under the bundle's own covariance
    (:func:`trend_centering`), the weighted estimate is computed on the
    centered observations, and the deterministic term
    tau^2 * int (1 - w(x)^T 1)^2 dmu is added back. For predictors whose
    weights sum to one the correction vanishes and the result equals the
    uncorrected estimate on the raw data.
    """
    if estimator not in ("blp", "blup"):
        raise ValueError(f"estimator must be 'blp' or 'blup', not {estimator!r}")
    tau, eps_z = trend_centering(bundle, y)
    base = (ise_blp if estimator == "blp" else ise_blup)(bundle, eps_z, clamp)
    correction = tau * tau * bundle.sum_to_one_defect
    return replace(base, value=base.value + correction, trend_correction_applied=True,
                   trend_amount=correction)


def optimal_mixture_weights(E_loo, gamma) -> np.ndarray:
    """Mixture weights minimizing the weighted estimate of the mixture's
    own ISE, subject to summing to one.

    E_loo is the (T, n) matrix of per-component LOO residuals and gamma
    the weighting of the squared residuals. The solution is
    (E G E^T)^{-1} 1 normalized; entries may be negative (no projection
    onto the simplex is applied).
    """
    E = np.asarray(E_loo, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if E.ndim != 2 or E.shape[1] != len(gamma):
        raise DimensionMismatch("E_loo must be (T, n) with n matching gamma")
    G = (E * gamma[None, :]) @ E.T
    T = G.shape[0]
    try:
        sol = np.linalg.solve(G, np.ones(T))
    except np.linalg.LinAlgError as exc:
        raise SingularGram("E Gamma E^T is singular") from exc
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularGram(f"E Gamma E^T condition estimate {cond:.3e} exceeds 1e12")
    return sol / float(sol.sum())
