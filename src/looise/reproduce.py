"""Seeded desk-scale reproductions of the published experiments.

Every experiment is a pure function of its fixed seeds. Results are
plot-ready CSV files plus a JSON manifest recording seeds, scales and
tolerances. Replication loops run on a thread pool (linear-algebra
kernels release the GIL); per-replication random streams are split by
index, so results are identical for any pool size and are always
written in replication order.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import numpy as np

from . import estimators, moments, numerics, testbed
from .designs import (
    Design,
    clamp_theta,
    greedy_packing,
    nn_distance,
    regular_grid,
    sobol_measure,
    sobol_points,
    theta_from_coverage,
    theta_loo,
    theta_packing_rule,
    uniform_measure,
)
from .errors import UnknownExperiment
from .kernels import KernelSpec
from .predictors import (
    BayesPolynomial,
    EmpiricalMean,
    SimpleKriging,
    poly_basis,
)
from .testbed import add_noise, environmental_values, random_fm, true_ise

EXPERIMENTS = {}


def register(name):
    def deco(fn):
        EXPERIMENTS[name] = fn
        return fn

    return deco


def run_experiment(name: str, outdir: str, threads: int = 1) -> dict:
    if name not in EXPERIMENTS:
        raise UnknownExperiment(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    os.makedirs(outdir, exist_ok=True)
    return EXPERIMENTS[name](outdir, max(1, int(threads)))


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\r\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def write_manifest(path: str, payload: dict) -> None:
    """Write an experiment's manifest, with the BLAS thread policy it ran under."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**payload, "blas": numerics.BLAS_PIN.as_dict()}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


def _map_ordered(fn, indices, threads: int):
    if threads <= 1:
        return [fn(i) for i in indices]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, indices))


# ---------------------------------------------------------------------------
# Exact performance numbers for the 10x10-grid study
# ---------------------------------------------------------------------------

TABLE1_REFERENCE = {
    "poly": {"e_ise": 0.418, "mse_trivial": 0.181, "e_loo": 3.373,
             "mse_loo": 12.785, "e_blp_limit": 0.672, "mse_blp_limit": 0.082},
    "blup": {"e_ise": 0.187, "mse_trivial": 0.035, "e_loo": 0.731,
             "mse_loo": 0.338, "e_blp_limit": 0.478, "mse_blp_limit": 0.103},
}


def _grid_study_predictor(row: str):
    design = regular_grid(2, 10)
    if row == "poly":
        idx, lam = poly_basis(2, 50, c=1000.0, t=2.0)
        return design, BayesPolynomial(idx, lam, 0.1, design)
    return design, SimpleKriging(KernelSpec("matern52", 5.0), design)


def table1_values(row: str) -> dict:
    """The six exact performance numbers for one predictor row."""
    design, pred = _grid_study_predictor(row)
    measure = sobol_measure(2, 2**10)
    ktrue = KernelSpec("matern32", 10.0)
    R = pred.loo
    bundle = moments.build_bundle(R, pred, ktrue, design, measure, compute_Vn=True)
    n = design.n
    rep_loo = estimators.performance_report(np.full(n, 1.0 / n), bundle)
    limit = moments.independent_limit_bundle(R, pred, design, measure)
    rep_lim = estimators.performance_report(limit.gamma_blp, bundle)
    return {
        "e_ise": bundle.J,
        "mse_trivial": bundle.J**2 + 2.0 * bundle.V,
        "e_loo": rep_loo.e_estimate,
        "mse_loo": rep_loo.mse,
        "e_blp_limit": rep_lim.e_estimate,
        "mse_blp_limit": rep_lim.mse,
    }


@register("table1")
def run_table1(outdir: str, threads: int = 1) -> dict:
    rows = []
    values = {}
    for row in ("poly", "blup"):
        got = table1_values(row)
        values[row] = got
        for key, val in got.items():
            ref = TABLE1_REFERENCE[row][key]
            rows.append((row, key, val, ref, abs(val - ref) / abs(ref)))
    path = os.path.join(outdir, "table1.csv")
    write_csv(path, ["row", "quantity", "value", "reference_value", "rel_err"], rows)
    write_manifest(os.path.join(outdir, "table1_manifest.json"), {
        "experiment": "table1",
        "design": "regular grid 10x10 on [0,1]^2",
        "measure": "first 2^10 unscrambled Sobol points",
        "generating_kernel": "matern32 theta=10",
        "tolerance_rel": 0.02,
        "seeds": {},
    })
    return {"csv": path, "values": values}


def _oracle_sweep(name: str, weight_rule, outdir: str, threads: int):
    """Exact E, MSE and bias of the estimate with weights weight_rule(bundle)
    vs the assumed range, for the kriging predictor row of the grid study
    (oracle mode). Writes <name>.csv; returns the grid, rows and path."""
    design, pred = _grid_study_predictor("blup")
    measure = sobol_measure(2, 2**10)
    ktrue = KernelSpec("matern32", 10.0)
    R = pred.loo
    bundle_true = moments.build_bundle(R, pred, ktrue, design, measure, compute_Vn=True)
    thetas = sorted(set(np.logspace(np.log10(0.05), np.log10(20.0), 25)) | {10.0})

    def one(theta):
        be = moments.build_bundle(R, pred, KernelSpec("matern32", theta),
                                  design, measure)
        rep = estimators.performance_report(weight_rule(be), bundle_true)
        return (theta, rep.e_estimate, rep.mse, rep.bias)

    rows = _map_ordered(one, thetas, threads)
    path = os.path.join(outdir, f"{name}.csv")
    write_csv(path, ["theta_blp", "e_estimate", "mse", "bias"], rows)
    return thetas, rows, path


@register("fig3")
def run_fig3(outdir: str, threads: int = 1) -> dict:
    """The oracle sweep for the best linear weights S^{-1} b."""
    thetas, rows, path = _oracle_sweep("fig3", lambda be: be.gamma_blp, outdir, threads)
    write_manifest(os.path.join(outdir, "fig3_manifest.json"), {
        "experiment": "fig3",
        "theta_grid": [float(t) for t in thetas],
        "generating_kernel": "matern32 theta=10",
        "vn_included": True,
        "seeds": {},
    })
    argmin = rows[int(np.argmin([r[2] for r in rows]))][0]
    return {"csv": path, "rows": rows, "mse_argmin_theta": float(argmin)}


@register("fig5")
def run_fig5(outdir: str, threads: int = 1) -> dict:
    """Same sweep for the unbiasedness-constrained weights."""
    _, rows, path = _oracle_sweep("fig5", estimators.blup_weights, outdir, threads)
    write_manifest(os.path.join(outdir, "fig5_manifest.json"), {
        "experiment": "fig5", "estimator": "unbiased weights",
        "generating_kernel": "matern32 theta=10", "vn_included": True, "seeds": {},
    })
    at10 = min(rows, key=lambda r: abs(r[0] - 10.0))
    return {"csv": path, "rows": rows, "bias_at_theta0": float(at10[3])}


# ---------------------------------------------------------------------------
# Influence of the design geometry (d = 1)
# ---------------------------------------------------------------------------

FIG1_SEED = 20240817


@register("fig1")
def run_fig1(outdir: str, threads: int = 1) -> dict:
    ktrue = KernelSpec("matern32", 5.0)
    f = testbed.GpSampleFunction(ktrue, seed=FIG1_SEED)
    measure = sobol_measure(1, 2**10)
    f.evaluate(measure.points)  # pin the realization on the support first
    deltas = np.geomspace(0.005, 0.1, 15)
    base = np.array([0.0, 0.2, 0.4, 0.6, 0.8])
    rows = []
    for delta in deltas:
        design = Design(points=np.sort(np.concatenate([base, base + delta]))[:, None])
        pred = SimpleKriging(KernelSpec("matern52", 2.0), design)
        y = f.evaluate(design.points)
        ise = true_ise(f, pred, y, measure)
        eps = pred.loo_residuals(y)
        bundle = moments.build_bundle(pred.loo, pred, ktrue, design, measure)
        est_loo = estimators.ise_loo(eps).value
        est_blp = estimators.ise_blp(bundle, eps, clamp=True).value
        n = design.n
        rep_loo = estimators.performance_report(np.full(n, 1.0 / n), bundle)
        rep_blp = estimators.performance_report(bundle.gamma_blp, bundle)
        rows.append((delta, est_loo / ise, est_blp / ise,
                     rep_loo.e_estimate / bundle.J, rep_blp.e_estimate / bundle.J))
    path = os.path.join(outdir, "fig1.csv")
    write_csv(path, ["delta", "ratio_loo", "ratio_blp", "eratio_loo", "eratio_blp"], rows)
    write_manifest(os.path.join(outdir, "fig1_manifest.json"), {
        "experiment": "fig1", "seeds": {"realization": FIG1_SEED},
        "generating_kernel": "matern32 theta=5",
        "predictor": "simple kriging matern52 theta=2",
    })
    return {"csv": path, "rows": rows}


@register("fig2")
def run_fig2(outdir: str, threads: int = 1) -> dict:
    ktrue = KernelSpec("matern32", 5.0)
    f = testbed.GpSampleFunction(ktrue, seed=FIG1_SEED)
    measure = sobol_measure(1, 2**10)
    f.evaluate(measure.points)
    design = Design(points=np.arange(10)[:, None] / 10.0)
    y = f.evaluate(design.points)
    rows = []
    for theta_p in np.linspace(1.0, 10.0, 19):
        pred = SimpleKriging(KernelSpec("matern32", theta_p), design)
        eps = pred.loo_residuals(y)
        bundle = moments.build_bundle(pred.loo, pred, ktrue, design, measure)
        n = design.n
        rep_loo = estimators.performance_report(np.full(n, 1.0 / n), bundle)
        rep_blp = estimators.performance_report(bundle.gamma_blp, bundle)
        rows.append((theta_p, true_ise(f, pred, y, measure),
                     estimators.ise_loo(eps).value,
                     estimators.ise_blp(bundle, eps, clamp=True).value,
                     bundle.J, rep_loo.e_estimate, rep_blp.e_estimate))
    path = os.path.join(outdir, "fig2.csv")
    write_csv(path, ["theta_p", "ise_true", "ise_loo", "ise_blp",
                     "e_ise", "e_loo", "e_blp"], rows)
    write_manifest(os.path.join(outdir, "fig2_manifest.json"), {
        "experiment": "fig2", "seeds": {"realization": FIG1_SEED},
        "design": "uniform 10-point grid {0,...,0.9}",
    })
    return {"csv": path, "rows": rows}


# ---------------------------------------------------------------------------
# Environmental-model studies
# ---------------------------------------------------------------------------

ENV_SEED = 1701


def _env_setup():
    candidates = sobol_points(2, 2**12)
    measure = uniform_measure(candidates)
    fvals = environmental_values(candidates)
    return candidates, measure, fvals


def _env_one_design(rep: int, candidates, theta_p: float = 1.0):
    design = greedy_packing(candidates, 200, a=0.2, seed=ENV_SEED + rep)
    pred = SimpleKriging(KernelSpec("matern32", theta_p), design)
    y = environmental_values(design.points)
    return design, pred, y


@register("fig7")
def run_fig7(outdir: str, threads: int = 1, n_designs: int = 20) -> dict:
    candidates, measure, fvals = _env_setup()

    def one(rep: int):
        design, pred, y = _env_one_design(rep, candidates)
        omega = testbed.omega_n(y)
        ise = true_ise(fvals, pred, y, measure)
        eps = pred.loo_residuals(y)
        est_loo = estimators.ise_loo(eps).value
        theta_hat = theta_loo(y, design, "matern52", mean_mode="zero")
        theta_blp = clamp_theta(theta_hat)
        bundle = moments.build_bundle(pred.loo, pred,
                                      KernelSpec("matern52", theta_blp),
                                      design, measure)
        est_blp = estimators.ise_blp(bundle, eps, clamp=True).value
        return (rep, omega, ise, est_loo, est_blp, theta_blp)

    rows = _map_ordered(one, range(n_designs), threads)
    path = os.path.join(outdir, "fig7.csv")
    write_csv(path, ["replication", "omega_n", "ise_true", "ise_loo", "ise_blp",
                     "theta_blp"], rows)
    write_manifest(os.path.join(outdir, "fig7_manifest.json"), {
        "experiment": "fig7", "n_designs": n_designs, "design_size": 200,
        "support": "first 2^12 Sobol points", "seeds": {"design_base": ENV_SEED},
        "predictor": "simple kriging matern32 theta=1",
        "theta_blp": "LOO-selected, clamped to [5, 50]",
    })
    return {"csv": path, "rows": rows}


@register("fig8")
def run_fig8(outdir: str, threads: int = 1) -> dict:
    candidates, measure, fvals = _env_setup()
    design = greedy_packing(candidates, 200, a=0.2, seed=ENV_SEED)
    theta_p = theta_packing_rule(design)
    pred = SimpleKriging(KernelSpec("matern32", theta_p), design)
    y = environmental_values(design.points)
    ise = true_ise(fvals, pred, y, measure)
    eps = pred.loo_residuals(y)
    est_loo = estimators.ise_loo(eps).value
    theta_zero = clamp_theta(theta_loo(y, design, "matern52", mean_mode="zero"))
    theta_const = clamp_theta(theta_loo(y, design, "matern52", mean_mode="constant"))

    def one(theta):
        kern = KernelSpec("matern52", theta)
        bundle = moments.build_bundle(pred.loo, pred, kern, design, measure)
        plain = estimators.ise_blp(bundle, eps, clamp=True).value
        corrected = estimators.trend_corrected_ise(bundle, y).value
        return (theta, plain, corrected)

    thetas = list(np.geomspace(5.0, 50.0, 13))
    for extra in (theta_zero, theta_const):
        if all(abs(extra - t) > 1e-9 for t in thetas):
            thetas.append(extra)
    rows = _map_ordered(one, sorted(thetas), threads)
    path = os.path.join(outdir, "fig8.csv")
    write_csv(path, ["theta_blp", "ise_blp_zero_mean", "ise_blp_trend"], rows)
    write_manifest(os.path.join(outdir, "fig8_manifest.json"), {
        "experiment": "fig8", "seeds": {"design": ENV_SEED},
        "theta_p": theta_p, "ise_true": ise, "ise_loo": est_loo,
        "theta_loo_zero_mean": theta_zero, "theta_loo_constant": theta_const,
    })
    return {"csv": path, "rows": rows, "ise_true": ise, "ise_loo": est_loo,
            "theta_loo_zero_mean": theta_zero, "theta_loo_constant": theta_const}


@register("table2")
def run_table2(outdir: str, threads: int = 1, n_designs: int = 20) -> dict:
    """Model selection across kriging ranges on the environmental model."""
    candidates, measure, fvals = _env_setup()
    theta_grid = np.arange(5.0, 51.0, 1.0)

    def one(rep: int):
        design = greedy_packing(candidates, 200, a=0.2, seed=ENV_SEED + rep)
        y = environmental_values(design.points)
        omega = testbed.omega_n(y)
        theta_blp = clamp_theta(theta_loo(y, design, "matern52", mean_mode="constant"))
        kern_e = KernelSpec("matern52", theta_blp)
        shared = {}  # C_e on the support, built once for all predictors
        loo_vals, blp_vals, true_vals = [], [], []
        for tp in theta_grid:
            pred = SimpleKriging(KernelSpec("matern32", tp), design)
            loo_vals.append(estimators.ise_loo(pred.loo_residuals(y)).value)
            weights = moments.WeightSource(pred, measure, design.n)  # bundle and true ISE
            bundle = moments.build_bundle(pred.loo, weights, kern_e, design, measure)
            centering = estimators.trend_centering(bundle, y)
            true_vals += moments.support_pass([(bundle, centering[1] ** 2)],
                                              [(fvals, weights, y)], cross=shared)
            blp_vals.append(
                estimators.trend_corrected_ise(bundle, y, centering=centering).value)
        ise_mean = true_ise(fvals, EmpiricalMean(design), y, measure)
        sel_oracle = true_vals[int(np.argmin(true_vals))]
        sel_loo = true_vals[int(np.argmin(loo_vals))]
        sel_blp = true_vals[int(np.argmin(blp_vals))]
        return (rep, sel_oracle / omega, sel_loo / omega, sel_blp / omega,
                ise_mean / omega)

    rows = _map_ordered(one, range(n_designs), threads)
    path = os.path.join(outdir, "table2.csv")
    write_csv(path, ["replication", "ise_sel_oracle", "ise_sel_loo",
                     "ise_sel_blp", "ise_empirical_mean"], rows)
    means = {
        "oracle": float(np.mean([r[1] for r in rows])),
        "loo": float(np.mean([r[2] for r in rows])),
        "blp": float(np.mean([r[3] for r in rows])),
        "empirical_mean": float(np.mean([r[4] for r in rows])),
    }
    write_manifest(os.path.join(outdir, "table2_manifest.json"), {
        "experiment": "table2", "n_designs": n_designs,
        "theta_grid": [float(t) for t in theta_grid],
        "seeds": {"design_base": ENV_SEED}, "means": means,
        "reference_means_full_scale": {"oracle": 0.197, "loo": 0.238, "blp": 0.224,
                                   "empirical_mean": 0.775},
    })
    return {"csv": path, "rows": rows, "means": means}


# ---------------------------------------------------------------------------
# Supplement C: average performance for GP realizations, d = 4
# ---------------------------------------------------------------------------


@register("suppC")
def run_suppC(outdir: str, threads: int = 1) -> dict:
    d = 4
    measure = sobol_measure(d, 2**15)
    ktrue = KernelSpec("matern32", 2.0)
    rows = []
    for n in (40, 80, 200, 400):
        design = Design(points=sobol_points(d, n, scramble_seed=11), provenance="sobol")
        Dn5 = nn_distance(measure.points, design, k=5)
        theta_p = theta_from_coverage("matern52", Dn5, 0.25)
        theta_e = theta_from_coverage("inverse-multiquadric", Dn5, 0.25)
        pred = SimpleKriging(KernelSpec("matern52", theta_p), design)
        R = pred.loo
        bundle_true = moments.build_bundle(R, pred, ktrue, design, measure)
        bundle_e = moments.build_bundle(R, pred,
                                        KernelSpec("inverse-multiquadric", theta_e),
                                        design, measure)
        rep_loo = estimators.performance_report(np.full(n, 1.0 / n), bundle_true)
        rep_blp = estimators.performance_report(bundle_e.gamma_blp, bundle_true)
        rep_blup = estimators.performance_report(estimators.blup_weights(bundle_e),
                                                 bundle_true)
        rows.append((n, Dn5, theta_p, theta_e, bundle_true.J,
                     rep_loo.e_estimate, rep_loo.mse,
                     rep_blp.e_estimate, rep_blp.mse,
                     rep_blup.e_estimate, rep_blup.mse))
    path = os.path.join(outdir, "suppC.csv")
    write_csv(path, ["n", "d_n5", "theta_p", "theta_blp", "e_ise",
                     "e_loo", "mse_loo", "e_blp", "mse_blp",
                     "e_blup", "mse_blup"], rows)
    write_manifest(os.path.join(outdir, "suppC_manifest.json"), {
        "experiment": "suppC", "d": d, "support": "2^15 Sobol",
        "note": "desk scale: d<=4, n<=400; V term omitted",
        "seeds": {"design_scramble": 11},
    })
    return {"csv": path, "rows": rows}


# ---------------------------------------------------------------------------
# Supplement F: random test functions, noise-free and noisy
# ---------------------------------------------------------------------------

SUPPF_SEED = 515


def _coverage_theta(family: str, design: Design, measure) -> float:
    return theta_from_coverage(family, nn_distance(measure.points, design, k=5), 0.25)


@register("suppF1")
def run_suppF1(outdir: str, threads: int = 1, n_reps: int = 10) -> dict:
    d, n = 2, 20
    measure = sobol_measure(d, 2**14)
    design = Design(points=sobol_points(d, n, scramble_seed=21), provenance="sobol")
    theta0 = _coverage_theta("matern32", design, measure)

    def one(rep: int):
        f = random_fm(n, d, KernelSpec("matern32", 50.0),
                      KernelSpec("matern32", theta0), seed=SUPPF_SEED + rep)
        y = f.evaluate(design.points)
        theta_p = theta_loo(y, design, "matern52", mean_mode="zero")
        pred = SimpleKriging(KernelSpec("matern52", theta_p), design)
        eps = pred.loo_residuals(y)
        theta_e = theta_loo(y, design, "inverse-multiquadric", mean_mode="zero")
        bundle = moments.build_bundle(pred.loo, pred,
                                      KernelSpec("inverse-multiquadric", theta_e),
                                      design, measure)
        return (rep, true_ise(f, pred, y, measure),
                estimators.ise_loo(eps).value,
                estimators.ise_blp(bundle, eps, clamp=True).value,
                estimators.ise_blup(bundle, eps, clamp=True).value)

    rows = _map_ordered(one, range(n_reps), threads)
    path = os.path.join(outdir, "suppF1.csv")
    write_csv(path, ["replication", "ise_true", "ise_loo", "ise_blp", "ise_blup"],
              rows)
    write_manifest(os.path.join(outdir, "suppF1_manifest.json"), {
        "experiment": "suppF1", "d": d, "n": n, "m": n, "n_reps": n_reps,
        "seeds": {"anchors_base": SUPPF_SEED, "design_scramble": 21},
    })
    return {"csv": path, "rows": rows}


@register("suppF2")
def run_suppF2(outdir: str, threads: int = 1, n_reps: int = 20) -> dict:
    d, n, gamma = 4, 40, 0.25
    measure = sobol_measure(d, 2**15)
    design = Design(points=sobol_points(d, n, scramble_seed=31), provenance="sobol")
    theta0 = _coverage_theta("matern32", design, measure)
    r_factors = (1.0, 10.0)

    def one(rep: int):
        f = random_fm(n, d, KernelSpec("matern32", 50.0),
                      KernelSpec("matern32", theta0), seed=SUPPF_SEED + 1000 + rep)
        y = add_noise(f.evaluate(design.points), gamma, SUPPF_SEED + 2000, rep)
        theta_p = theta_loo(y, design, "matern52", mean_mode="zero",
                            nugget=gamma**2)
        pred = SimpleKriging(KernelSpec("matern52", theta_p, nugget=gamma**2), design)
        eps = pred.loo_residuals(y)
        ise = true_ise(f, pred, y, measure)
        est_loo = estimators.ise_loo(eps).value
        out = []
        for factor in r_factors:
            r_e = factor * gamma**2
            theta_e = theta_loo(y, design, "inverse-multiquadric",
                                mean_mode="zero", nugget=r_e)
            kern_e = KernelSpec("inverse-multiquadric", theta_e, nugget=r_e)
            bundle = moments.build_bundle(pred.loo, pred, kern_e, design, measure)
            out.append((rep, factor, ise, est_loo,
                        estimators.ise_blp(bundle, eps, clamp=True).value,
                        estimators.ise_blup(bundle, eps, clamp=True).value))
        return out

    rows = [row for chunk in _map_ordered(one, range(n_reps), threads) for row in chunk]
    path = os.path.join(outdir, "suppF2.csv")
    write_csv(path, ["replication", "r_factor", "ise_true", "ise_loo",
                     "ise_blp", "ise_blup"], rows)
    write_manifest(os.path.join(outdir, "suppF2_manifest.json"), {
        "experiment": "suppF2", "d": d, "n": n, "m": n, "noise_sd": gamma,
        "n_reps": n_reps, "r_factors": list(r_factors),
        "seeds": {"anchors_base": SUPPF_SEED + 1000, "noise_base": SUPPF_SEED + 2000,
                  "design_scramble": 31},
    })
    return {"csv": path, "rows": rows}
