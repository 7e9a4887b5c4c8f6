"""Seeded desk-scale reproductions of the published experiments.

Every experiment is a pure function of its fixed seeds. Results are
plot-ready CSV files plus a JSON manifest recording seeds, scales and
tolerances. Every target walks the support once per predictor, for all
its bundles, residuals and true ISE. A pool of `threads` threads (BLAS
releases the GIL) runs over the units that share one cache: table2's
candidate ranges of one replication, and elsewhere the replications,
which keep none. Walks on the pool run inline; the others' blocks use
every CPU. Per-replication random streams are split by index, so results
are identical for any pool size and are always written in replication order.
"""

from __future__ import annotations

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
    return EXPERIMENTS[name](outdir, threads)


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


def _emit(outdir: str, name: str, header: list[str], rows: list[tuple],
          manifest: dict) -> str:
    """Write <name>.csv and <name>_manifest.json; returns the CSV's path."""
    path = os.path.join(outdir, f"{name}.csv")
    write_csv(path, header, rows)
    write_manifest(os.path.join(outdir, f"{name}_manifest.json"),
                   {"experiment": name, **manifest})
    return path


# ---------------------------------------------------------------------------
# Exact performance numbers for the 10x10-grid study
# ---------------------------------------------------------------------------

TABLE1_REFERENCE = {
    "poly": {"e_ise": 0.418, "mse_trivial": 0.181, "e_loo": 3.373,
             "mse_loo": 12.785, "e_blp_limit": 0.672, "mse_blp_limit": 0.082},
    "blup": {"e_ise": 0.187, "mse_trivial": 0.035, "e_loo": 0.731,
             "mse_loo": 0.338, "e_blp_limit": 0.478, "mse_blp_limit": 0.103},
}
ORACLE_THETAS = sorted(set(np.logspace(np.log10(0.05), np.log10(20.0), 25)) | {10.0})


def _grid_study(row: str):
    """The predictor of one row of the grid study, its support, and the
    oracle: its bundle under the generating matern32 theta=10, with V_n."""
    design = regular_grid(2, 10)
    if row == "poly":
        idx, lam = poly_basis(2, 50, c=1000.0, t=2.0)
        pred = BayesPolynomial(idx, lam, 0.1, design)
    else:
        pred = SimpleKriging(KernelSpec("matern52", 5.0), design)
    measure = sobol_measure(2, 2**10)
    oracle = moments.build_bundle(pred, KernelSpec("matern32", 10.0), measure, compute_Vn=True)
    return pred, measure, oracle


def table1_values(row: str) -> dict:
    """The six exact performance numbers for one predictor row."""
    pred, measure, oracle = _grid_study(row)
    (limit,), _ = moments.predictor_walk(pred, measure, [None], oracle=oracle)
    n = pred.n
    rep_loo = estimators.performance_report(np.full(n, 1.0 / n), oracle)
    rep_lim = estimators.performance_report(limit.gamma_blp, oracle)
    return {
        "e_ise": oracle.J,
        "mse_trivial": oracle.J**2 + 2.0 * oracle.V,
        "e_loo": rep_loo.e_estimate,
        "mse_loo": rep_loo.mse,
        "e_blp_limit": rep_lim.e_estimate,
        "mse_blp_limit": rep_lim.mse,
    }


@register("table1")
def run_table1(outdir: str, threads: int = 1) -> dict:
    values = {row: table1_values(row) for row in ("poly", "blup")}
    rows = []
    for row, got in values.items():
        for key, val in got.items():
            ref = TABLE1_REFERENCE[row][key]
            rows.append((row, key, val, ref, abs(val - ref) / abs(ref)))
    path = _emit(outdir, "table1", ["row", "quantity", "value", "reference_value",
                                    "rel_err"], rows, {
        "design": "regular grid 10x10 on [0,1]^2",
        "measure": "first 2^10 unscrambled Sobol points",
        "generating_kernel": "matern32 theta=10",
        "tolerance_rel": 0.02,
        "seeds": {},
    })
    return {"csv": path, "values": values}


def _oracle_sweep(name: str, weight_rule, outdir: str, manifest: dict):
    """Exact E, MSE and bias of the estimate with weights weight_rule(bundle)
    at each assumed range of ORACLE_THETAS, for the kriging row of the grid
    study (oracle mode): the oracle and all ranges share one walk. Writes
    <name>.csv and its manifest; returns the rows and the CSV's path."""
    pred, measure, oracle = _grid_study("blup")
    kernels = [KernelSpec("matern32", t) for t in ORACLE_THETAS]
    bundles, _ = moments.predictor_walk(pred, measure, kernels, oracle=oracle)
    reports = [estimators.performance_report(weight_rule(be), oracle) for be in bundles]
    rows = [(t, r.e_estimate, r.mse, r.bias) for t, r in zip(ORACLE_THETAS, reports)]
    header = ["theta_blp", "e_estimate", "mse", "bias"]
    return rows, _emit(outdir, name, header, rows, {
        "generating_kernel": "matern32 theta=10", "vn_included": True, "seeds": {},
        **manifest})


@register("fig3")
def run_fig3(outdir: str, threads: int = 1) -> dict:
    """The oracle sweep for the best linear weights S^{-1} b."""
    rows, path = _oracle_sweep("fig3", lambda be: be.gamma_blp, outdir,
                               {"theta_grid": [float(t) for t in ORACLE_THETAS]})
    argmin = rows[int(np.argmin([r[2] for r in rows]))][0]
    return {"csv": path, "rows": rows, "mse_argmin_theta": float(argmin)}


@register("fig5")
def run_fig5(outdir: str, threads: int = 1) -> dict:
    """Same sweep for the unbiasedness-constrained weights."""
    rows, path = _oracle_sweep("fig5", estimators.blup_weights, outdir,
                               {"estimator": "unbiased weights"})
    at10 = min(rows, key=lambda r: abs(r[0] - 10.0))
    return {"csv": path, "rows": rows, "bias_at_theta0": float(at10[3])}


# ---------------------------------------------------------------------------
# Influence of the design geometry (d = 1)
# ---------------------------------------------------------------------------

FIG1_SEED = 20240817


def _gp_realization():
    """The matern32 theta=5 GP path of fig1 and fig2, pinned on the support first."""
    f = testbed.GpSampleFunction(KernelSpec("matern32", 5.0), seed=FIG1_SEED)
    measure = sobol_measure(1, 2**10)
    f.evaluate(measure.points)
    return f, measure


def _gp_row(pred, f, measure) -> tuple:
    """ise_true, ise_loo, ise_blp, e_ise, e_loo and e_blp of one predictor of the
    realization f, under its generating kernel, from one walk."""
    y = f.evaluate(pred.design.points)
    eps = pred.loo_residuals(y)
    (bundle,), ise = moments.predictor_walk(pred, measure, [f.kernel], lambda b: [eps],
                                            (f(measure.points), y))
    n = pred.n
    rep_loo = estimators.performance_report(np.full(n, 1.0 / n), bundle)
    rep_blp = estimators.performance_report(bundle.gamma_blp, bundle)
    return (ise, estimators.ise_loo(eps).value, estimators.ise_blp(bundle, eps).value,
            bundle.J, rep_loo.e_estimate, rep_blp.e_estimate)


@register("fig1")
def run_fig1(outdir: str, threads: int = 1) -> dict:
    f, measure = _gp_realization()
    base = np.array([0.0, 0.2, 0.4, 0.6, 0.8])
    rows = []
    for delta in np.geomspace(0.005, 0.1, 15):
        design = Design(points=np.sort(np.concatenate([base, base + delta]))[:, None])
        pred = SimpleKriging(KernelSpec("matern52", 2.0), design)
        ise, est_loo, est_blp, J, e_loo, e_blp = _gp_row(pred, f, measure)
        rows.append((delta, est_loo / ise, est_blp / ise, e_loo / J, e_blp / J))
    path = _emit(outdir, "fig1", ["delta", "ratio_loo", "ratio_blp", "eratio_loo",
                                  "eratio_blp"], rows, {
        "seeds": {"realization": FIG1_SEED},
        "generating_kernel": "matern32 theta=5",
        "predictor": "simple kriging matern52 theta=2",
    })
    return {"csv": path, "rows": rows}


@register("fig2")
def run_fig2(outdir: str, threads: int = 1) -> dict:
    f, measure = _gp_realization()
    design = Design(points=np.arange(10)[:, None] / 10.0)
    rows = [(theta_p, *_gp_row(SimpleKriging(KernelSpec("matern32", theta_p), design),
                               f, measure))
            for theta_p in np.linspace(1.0, 10.0, 19)]
    path = _emit(outdir, "fig2", ["theta_p", "ise_true", "ise_loo", "ise_blp",
                                  "e_ise", "e_loo", "e_blp"], rows, {
        "seeds": {"realization": FIG1_SEED},
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


def _env_design(candidates, rep: int):
    """The packed 200-point design of one replication and its observations."""
    design = greedy_packing(candidates, 200, a=0.2, seed=ENV_SEED + rep)
    return design, environmental_values(design.points)


@register("fig7")
def run_fig7(outdir: str, threads: int = 1, n_designs: int = 20) -> dict:
    candidates, measure, fvals = _env_setup()

    def one(rep: int):
        design, y = _env_design(candidates, rep)
        pred = SimpleKriging(KernelSpec("matern32", 1.0), design)
        eps = pred.loo_residuals(y)
        theta_blp = clamp_theta(theta_loo(y, design, "matern52", mean_mode="zero"))
        (bundle,), ise = moments.predictor_walk(
            pred, measure, [KernelSpec("matern52", theta_blp)], lambda b: [eps], (fvals, y))
        return (rep, testbed.omega_n(y), ise, estimators.ise_loo(eps).value,
                estimators.ise_blp(bundle, eps).value, theta_blp)

    rows = numerics.map_ordered(one, range(n_designs), threads)
    path = _emit(outdir, "fig7", ["replication", "omega_n", "ise_true", "ise_loo",
                                  "ise_blp", "theta_blp"], rows, {
        "n_designs": n_designs, "design_size": 200,
        "support": "first 2^12 Sobol points", "seeds": {"design_base": ENV_SEED},
        "predictor": "simple kriging matern32 theta=1",
        "theta_blp": "LOO-selected, clamped to [5, 50]",
    })
    return {"csv": path, "rows": rows}


@register("fig8")
def run_fig8(outdir: str, threads: int = 1) -> dict:
    candidates, measure, fvals = _env_setup()
    design, y = _env_design(candidates, 0)
    theta_p = theta_packing_rule(design)
    pred = SimpleKriging(KernelSpec("matern32", theta_p), design)
    eps = pred.loo_residuals(y)
    est_loo = estimators.ise_loo(eps).value
    theta_zero = clamp_theta(theta_loo(y, design, "matern52", mean_mode="zero"))
    theta_const = clamp_theta(theta_loo(y, design, "matern52", mean_mode="constant"))
    thetas = list(np.geomspace(5.0, 50.0, 13))
    for extra in (theta_zero, theta_const):
        if all(abs(extra - t) > 1e-9 for t in thetas):
            thetas.append(extra)
    thetas.sort()
    bundles, ise = moments.predictor_walk(  # plain and trend-centred residuals, one walk
        pred, measure, [KernelSpec("matern52", t) for t in thetas],
        lambda bundle: (eps, estimators.trend_centering(bundle, y)[1]), (fvals, y))
    rows = [(theta, estimators.ise_blp(bundle, eps).value,
             estimators.trend_corrected_ise(bundle, y).value)
            for theta, bundle in zip(thetas, bundles)]
    path = _emit(outdir, "fig8", ["theta_blp", "ise_blp_zero_mean", "ise_blp_trend"],
                 rows, {
        "seeds": {"design": ENV_SEED},
        "theta_p": theta_p, "ise_true": ise, "ise_loo": est_loo,
        "theta_loo_zero_mean": theta_zero, "theta_loo_constant": theta_const,
    })
    return {"csv": path, "rows": rows, "ise_true": ise, "ise_loo": est_loo,
            "theta_loo_zero_mean": theta_zero, "theta_loo_constant": theta_const}


@register("table2")
def run_table2(outdir: str, threads: int = 1, n_designs: int = 20) -> dict:
    """Model selection across kriging ranges on the environmental model.

    The pool runs over one replication's candidate ranges, which share its
    cache of D and C_e on the support, so one cache is alive at a time."""
    candidates, measure, fvals = _env_setup()
    theta_grid = np.arange(5.0, 51.0, 1.0)

    def one(rep: int):
        design, y = _env_design(candidates, rep)
        omega = testbed.omega_n(y)
        theta_blp = clamp_theta(theta_loo(y, design, "matern52", mean_mode="constant"))
        shared = {}  # K_e, its trend BLUE, D and C_e on the support, once for all predictors
        kern_e = KernelSpec("matern52", theta_blp)

        def scores(tp):  # at most `threads` candidates' predictors and bundles are alive
            pred = SimpleKriging(KernelSpec("matern32", tp), design)
            loo = estimators.ise_loo(pred.loo_residuals(y)).value
            (bundle,), ise = moments.predictor_walk(
                pred, measure, [kern_e], lambda b: [estimators.trend_centering(b, y)[1]],
                (fvals, y), shared=shared)
            return loo, estimators.trend_corrected_ise(bundle, y).value, ise

        first = scores(theta_grid[0])  # its walk fills `shared`; the pool's walks only read it
        loo_vals, blp_vals, true_vals = zip(
            first, *numerics.map_ordered(scores, theta_grid[1:], threads))
        ise_mean = true_ise(fvals, EmpiricalMean(design), y, measure)
        sel_oracle = true_vals[int(np.argmin(true_vals))]
        sel_loo = true_vals[int(np.argmin(loo_vals))]
        sel_blp = true_vals[int(np.argmin(blp_vals))]
        return (rep, sel_oracle / omega, sel_loo / omega, sel_blp / omega,
                ise_mean / omega)

    rows = [one(rep) for rep in range(n_designs)]
    means = {
        "oracle": float(np.mean([r[1] for r in rows])),
        "loo": float(np.mean([r[2] for r in rows])),
        "blp": float(np.mean([r[3] for r in rows])),
        "empirical_mean": float(np.mean([r[4] for r in rows])),
    }
    path = _emit(outdir, "table2", ["replication", "ise_sel_oracle", "ise_sel_loo",
                                    "ise_sel_blp", "ise_empirical_mean"], rows, {
        "n_designs": n_designs,
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
        (bundle_true, bundle_e), _ = moments.predictor_walk(
            pred, measure, [ktrue, KernelSpec("inverse-multiquadric", theta_e)])
        rep_loo = estimators.performance_report(np.full(n, 1.0 / n), bundle_true)
        rep_blp = estimators.performance_report(bundle_e.gamma_blp, bundle_true)
        rep_blup = estimators.performance_report(estimators.blup_weights(bundle_e),
                                                 bundle_true)
        rows.append((n, Dn5, theta_p, theta_e, bundle_true.J,
                     rep_loo.e_estimate, rep_loo.mse,
                     rep_blp.e_estimate, rep_blp.mse,
                     rep_blup.e_estimate, rep_blup.mse))
    path = _emit(outdir, "suppC", ["n", "d_n5", "theta_p", "theta_blp", "e_ise",
                                   "e_loo", "mse_loo", "e_blp", "mse_blp",
                                   "e_blup", "mse_blup"], rows, {
        "d": d, "support": "2^15 Sobol",
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
        kern_e = KernelSpec("inverse-multiquadric", theta_e)
        (bundle,), ise = moments.predictor_walk(pred, measure, [kern_e], lambda b: [eps],
                                                (f(measure.points), y))
        return (rep, ise, estimators.ise_loo(eps).value,
                estimators.ise_blp(bundle, eps).value,
                estimators.ise_blup(bundle, eps).value)

    rows = numerics.map_ordered(one, range(n_reps), threads)
    path = _emit(outdir, "suppF1", ["replication", "ise_true", "ise_loo", "ise_blp",
                                    "ise_blup"], rows, {
        "d": d, "n": n, "m": n, "n_reps": n_reps,
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
        kernels = []
        for factor in r_factors:
            r_e = factor * gamma**2
            theta_e = theta_loo(y, design, "inverse-multiquadric",
                                mean_mode="zero", nugget=r_e)
            kernels.append(KernelSpec("inverse-multiquadric", theta_e, nugget=r_e))
        bundles, ise = moments.predictor_walk(pred, measure, kernels, lambda b: [eps],
                                              (f(measure.points), y))
        est_loo = estimators.ise_loo(eps).value
        return [(rep, factor, ise, est_loo, estimators.ise_blp(bundle, eps).value,
                 estimators.ise_blup(bundle, eps).value)
                for factor, bundle in zip(r_factors, bundles)]

    rows = [row for chunk in numerics.map_ordered(one, range(n_reps), threads)
            for row in chunk]
    path = _emit(outdir, "suppF2", ["replication", "r_factor", "ise_true", "ise_loo",
                                    "ise_blp", "ise_blup"], rows, {
        "d": d, "n": n, "m": n, "noise_sd": gamma,
        "n_reps": n_reps, "r_factors": list(r_factors),
        "seeds": {"anchors_base": SUPPF_SEED + 1000, "noise_base": SUPPF_SEED + 2000,
                  "design_scramble": 31},
    })
    return {"csv": path, "rows": rows}
