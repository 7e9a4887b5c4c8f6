"""Oracles the package is tested against.

`ise_wloo_blp` is an independent transcription of the published
weighted-LOO routine: a literal port of the original Matlab function
(column conventions kept: WnN and knx are (n, N), Mu is the weight row)
that touches no package code. `loo_residuals_bruteforce` computes LOO
residuals by n actual refits, each predictor rebuilt from its public
attributes on the design without one point.
"""

import numpy as np

from looise.designs import Design
from looise.predictors import BayesPolynomial, EmpiricalMean, FixedMixture, SimpleKriging


def _refit(pred, keep):
    """The same predictor fit on the design rows `keep` alone."""
    design = Design(points=pred.design.points[keep], provenance=pred.design.provenance)
    if isinstance(pred, BayesPolynomial):  # before SimpleKriging, its base class
        return BayesPolynomial(pred.indices, pred.prior_diag, pred.noise_var, design)
    if isinstance(pred, SimpleKriging):  # OrdinaryKriging too
        return type(pred)(pred.kernel, design)
    if isinstance(pred, EmpiricalMean):
        return EmpiricalMean(design)
    if isinstance(pred, FixedMixture):
        return FixedMixture([_refit(c, keep) for c in pred.components], pred.nu)
    raise TypeError(f"a {type(pred).__name__} cannot be refit")


def loo_residuals_bruteforce(pred, y) -> np.ndarray:
    """LOO residuals by n actual refits; O(n^4)."""
    y = np.asarray(y, dtype=float)
    out = np.empty(pred.n)
    for i in range(pred.n):
        keep = np.arange(pred.n) != i
        out[i] = y[i] - _refit(pred, keep).predict(y[keep], pred.design.points[i])
    return out


def ise_wloo_blp(yn, Rn, Mu, WnN, Kn_BLP, knx_BLP, nugget, constant_term):
    yn = np.asarray(yn, dtype=float).copy()
    n = len(yn)
    blue = np.nan
    loo = Rn.T @ yn
    loo_sq = loo**2
    ise_loocv = loo_sq.mean()
    rhon2 = 1.0 + nugget - 2.0 * np.sum(WnN * knx_BLP, axis=0) + np.sum(WnN * (Kn_BLP @ WnN), axis=0)
    tn = knx_BLP - Kn_BLP @ WnN
    un = np.ones(n)
    ise_add = 0.0
    if constant_term:
        Knm1un = np.linalg.solve(Kn_BLP, un)
        blue = float(yn @ Knm1un) / float(un @ Knm1un)
        yn = yn - blue * un
        loo = Rn.T @ yn
        loo_sq = loo**2
        ise_add = blue**2 * np.mean((un @ WnN - 1.0) ** 2)
    Qdum = Rn.T @ Kn_BLP @ Rn
    um = np.diag(Qdum)
    cm = np.outer(um, rhon2) + 2.0 * (Rn.T @ tn) ** 2
    Sm = np.outer(um, um) + 2.0 * Qdum**2
    wLOO = np.linalg.solve(Sm, cm)
    wLOO_unb = np.linalg.solve(
        Sm, cm + np.outer(um, rhon2 - um @ wLOO) / float(um @ np.linalg.solve(Sm, um))
    )
    err2 = np.maximum(loo_sq @ wLOO, 0.0)
    err2_unb = np.maximum(loo_sq @ wLOO_unb, 0.0)
    ise_blp = float(np.sum(Mu * err2)) + (ise_add if constant_term else 0.0)
    ise_blp_unb = float(np.sum(Mu * err2_unb)) + (ise_add if constant_term else 0.0)
    return {
        "ise_BLP": ise_blp,
        "ise_BLP_unbiased": ise_blp_unb,
        "ise_LOOCV": float(ise_loocv),
        "BLUE": blue,
    }
