"""Command-line front end.

Subcommands: estimate | sweep | reproduce | design | selftest.
Configuration comes from a flat key-value file (--config), overridable
by `--key=value` pairs using the same dotted names. LOOISE_SEED,
LOOISE_THREADS and LOOISE_OUT are the defaults of the flags of those names.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__, estimators, moments, numerics
from .config import apply_overrides, get_bool, get_float, get_int, parse_config
from .designs import (
    Design,
    clamp_theta,
    design_from_csv,
    design_to_csv,
    greedy_packing,
    regular_grid,
    sobol_design,
    sobol_measure,
    sobol_points,
    theta_loo,
    uniform_measure,
)
from .errors import ConfigError, DimensionMismatch, LooiseError, UnknownExperiment
from .kernels import KernelSpec
from .predictors import (
    BayesPolynomial,
    EmpiricalMean,
    OrdinaryKriging,
    SimpleKriging,
    TableWeights,
    poly_basis,
)
from .reproduce import EXPERIMENTS, run_experiment, write_csv, write_manifest
from .selftest import run_selftest

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_config(args, extra: dict[str, str]) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if args.config:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    cfg = apply_overrides(cfg, extra)
    if "threads" in cfg and args.command != "reproduce":
        raise ConfigError("threads sizes only the pool of reproduce; "
                          f"{args.command} runs on every CPU the process may use")
    for key in ("seed", "threads"):
        if getattr(args, key, None) is not None:
            cfg[key] = str(getattr(args, key))
    return cfg


def _reads_inputs(fn):
    """A ValueError or DimensionMismatch while reading or checking inputs is a ConfigError."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, DimensionMismatch) as exc:
            raise ConfigError(str(exc)) from exc

    return wrapped


def _finite(values: np.ndarray, path: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ConfigError(f"{path} holds a non-finite value")
    return values


@_reads_inputs
def _build_design(cfg: dict) -> Design:
    if "design.file" in cfg:
        with open(cfg["design.file"]) as fh:
            return design_from_csv(fh.read())
    gen = cfg.get("design.generator")
    if gen is None:
        raise ConfigError("design.file or design.generator is required")
    d = get_int(cfg, "design.d")
    seed = get_int(cfg, "design.seed", get_int(cfg, "seed", 0))
    if gen == "grid":
        return regular_grid(d, get_int(cfg, "design.per_axis"))
    if gen == "sobol":
        return sobol_design(d, get_int(cfg, "design.n"), scramble_seed=seed)
    if gen == "packing":
        cand = sobol_points(d, 2 ** get_int(cfg, "design.candidates_log2", 12))
        return greedy_packing(cand, get_int(cfg, "design.n"),
                              a=get_float(cfg, "design.relaxation", 0.0), seed=seed)
    raise ConfigError(f"unknown design.generator {gen!r}")


@_reads_inputs
def _build_measure(cfg: dict, d: int):
    if "measure.file" in cfg:
        with open(cfg["measure.file"]) as fh:
            pts = design_from_csv(fh.read()).points
        if pts.shape[1] != d:
            raise ConfigError(f"measure.file holds points of dimension {pts.shape[1]}; "
                              f"the design has dimension {d}")
        return uniform_measure(pts)
    N = get_int(cfg, "measure.sobol_n", 1024)
    seed = get_int(cfg, "measure.seed") if "measure.seed" in cfg else None
    return sobol_measure(d, N, scramble_seed=seed)


@_reads_inputs
def _kernel_from(cfg: dict, prefix: str, theta_override: float | None = None) -> KernelSpec:
    family = cfg.get(f"{prefix}.family")
    if family is None:
        raise ConfigError(f"missing {prefix}.family")
    theta = theta_override if theta_override is not None else get_float(cfg, f"{prefix}.theta")
    return KernelSpec(family, theta, get_float(cfg, f"{prefix}.nugget", 0.0))


@_reads_inputs
def _build_predictor(cfg: dict, design: Design):
    variant = cfg.get("predictor.variant", "simple-kriging")
    if variant == "empirical-mean":
        return EmpiricalMean(design)
    if variant == "bayes-poly":
        idx, lam = poly_basis(design.d, get_int(cfg, "predictor.poly.m", 50),
                              c=get_float(cfg, "predictor.poly.scale", 1000.0),
                              t=get_float(cfg, "predictor.poly.decay", 2.0))
        return BayesPolynomial(idx, lam, get_float(cfg, "predictor.poly.noise", 0.1),
                               design)
    if variant == "table":
        if "predictor.weights_file" not in cfg:
            raise ConfigError("predictor.variant=table requires predictor.weights_file")
        with open(cfg["predictor.weights_file"]) as fh:
            rows = [ln.split(",") for ln in fh.read().strip().splitlines()[1:]]
        table = _finite(np.asarray(rows, dtype=float), cfg["predictor.weights_file"])
        support = table[:, : design.d]
        weights = table[:, design.d:]
        loo = None
        if "predictor.loo_file" in cfg:
            loo = _finite(np.loadtxt(cfg["predictor.loo_file"], delimiter=",", skiprows=1),
                          cfg["predictor.loo_file"])
        return TableWeights(support, weights, design, loo_matrix=loo)
    kern = _kernel_from(cfg, "predictor.kernel")
    if variant == "simple-kriging":
        return SimpleKriging(kern, design)
    if variant == "ordinary-kriging":
        return OrdinaryKriging(kern, design)
    raise ConfigError(f"unknown predictor.variant {variant!r}")


@_reads_inputs
def _load_y(cfg: dict, design: Design) -> np.ndarray:
    if "data.file" in cfg:
        y = np.loadtxt(cfg["data.file"], delimiter=",", skiprows=1, ndmin=1)
        if y.ndim != 1 or len(y) != design.n:
            raise ConfigError(f"data.file must hold {design.n} values in one column")
        return _finite(y, cfg["data.file"])
    from .testbed import environmental_values, piston4d_values

    fname = cfg.get("function.name")
    functions = {"environmental": (environmental_values, 2), "piston4d": (piston4d_values, 4)}
    if fname is None:
        raise ConfigError("either data.file or function.name is required")
    if fname not in functions:
        raise ConfigError(f"unknown function.name {fname!r}; known: {', '.join(functions)}")
    fn, d = functions[fname]
    if design.d != d:
        raise ConfigError(f"function.name = {fname} needs a design of dimension {d}, "
                          f"got {design.d}")
    return fn(design.points)


def _estimator_theta(cfg: dict, y, design: Design, trend_mode: str) -> tuple[float, str]:
    if cfg.get("estimator.kernel.theta") != "loo":
        return get_float(cfg, "estimator.kernel.theta"), "fixed"
    # validates the family and nugget; the range itself comes from LOO
    kern = _kernel_from(cfg, "estimator.kernel", theta_override=1.0)
    mean_mode = "constant" if trend_mode == "constant" else "zero"
    theta = clamp_theta(theta_loo(y, design, kern.family, mean_mode=mean_mode, nugget=kern.nugget))
    return theta, "loo-selected, clamped to [5, 50]"


def _manifest(cfg: dict) -> dict:
    return {"version": __version__, "config": dict(sorted(cfg.items()))}


@_reads_inputs
def _mixture_spec(cfg: dict):
    if "estimator.mixture.families" not in cfg:
        return None
    families = [tok.strip() for tok in cfg["estimator.mixture.families"].split(",")]
    try:
        thetas = [float(t) for t in cfg["estimator.mixture.thetas"].split(",")]
        nus = [float(t) for t in cfg["estimator.mixture.weights"].split(",")]
    except (KeyError, ValueError) as exc:
        raise ConfigError("estimator.mixture.* needs matching comma lists") from exc
    if not len(families) == len(thetas) == len(nus):
        raise ConfigError("estimator.mixture.* lists must have equal length")
    try:
        nus = moments.simplex(nus)
    except LooiseError as exc:  # the WeightSimplexViolation that mixture_bundle would raise
        raise ConfigError(f"estimator.mixture.weights: {exc}") from exc
    nugget = get_float(cfg, "estimator.kernel.nugget", 0.0)
    return [KernelSpec(f, t, nugget) for f, t in zip(families, thetas)], nus


def _inputs(cfg: dict):
    """The design, measure, predictor, y, LOO residuals and clamp flag of estimate and sweep."""
    design = _build_design(cfg)
    measure = _build_measure(cfg, design.d)
    predictor = _build_predictor(cfg, design)
    y = _load_y(cfg, design)
    clamp = get_bool(cfg, "estimator.clamp", True)
    return design, measure, predictor, y, predictor.loo_residuals(y), clamp


def _estimate_payload(cfg: dict) -> dict:
    if "estimator.vn" in cfg:
        raise ConfigError("estimator.vn affects only the oracle columns of sweep")
    trend_mode = cfg.get("trend.mode", "zero")
    if trend_mode not in ("zero", "constant"):
        raise ConfigError("trend.mode must be 'zero' or 'constant'")
    mixture = _mixture_spec(cfg)
    design, measure, predictor, y, eps, clamp = _inputs(cfg)
    if mixture is not None:
        kernels, nus = mixture
        theta, theta_rule = None, "mixture"  # no single assumed range
        bundle = moments.mixture_bundle(predictor, kernels, nus, measure)
    else:
        theta, theta_rule = _estimator_theta(cfg, y, design, trend_mode)
        kern_e = _kernel_from(cfg, "estimator.kernel", theta_override=theta)
        bundle = moments.build_bundle(predictor, kern_e, measure)
    est_loo = estimators.ise_loo(eps)
    if trend_mode == "constant":
        est_blp = estimators.trend_corrected_ise(bundle, y, "blp", clamp)
        est_blup = estimators.trend_corrected_ise(bundle, y, "blup", clamp)
    else:
        est_blp = estimators.ise_blp(bundle, eps, clamp=clamp)
        est_blup = estimators.ise_blup(bundle, eps, clamp=clamp)
    return {
        "ise_loo": est_loo.value,
        "ise_blp": est_blp.value,
        "ise_blp_unbiased": est_blup.value,
        "theta_used": theta,
        "trend_info": {
            "mode": trend_mode,
            "correction": est_blp.trend_amount,
        },
        "diagnostics": {
            "n": design.n,
            "support_size": measure.size,
            "estimator_tags": [est_blp.estimator, est_blup.estimator],
            "theta_rule": theta_rule,
            "clamped": clamp,
            "s_jitter": bundle.S_fact.jitter_applied,
            "loo_full_rank": predictor.loo.full_rank,
            "blas": numerics.BLAS_PIN.as_dict(),
        },
        "manifest": _manifest(cfg),
    }


def cmd_estimate(args, extra) -> int:
    cfg = _load_config(args, extra)
    payload = _estimate_payload(cfg)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "estimate.json"), "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


@_reads_inputs
def _sweep_thetas(cfg: dict) -> list[float]:
    if "sweep.thetas" in cfg:
        return [float(tok) for tok in cfg["sweep.thetas"].split(",") if tok.strip()]
    lo = get_float(cfg, "sweep.log_min")
    hi = get_float(cfg, "sweep.log_max")
    count = get_int(cfg, "sweep.count", 20)
    return list(np.geomspace(lo, hi, count))


def _check_sweep_keys(cfg: dict) -> None:
    """Reject the keys whose meaning sweep does not implement, rather than
    write a CSV that silently ignores them."""
    if cfg.get("trend.mode", "zero") != "zero":
        raise ConfigError("trend.mode must be 'zero' for sweep; its estimates are not "
                          "trend-corrected")
    mixture = sorted(k for k in cfg if k.startswith("estimator.mixture."))
    if mixture:
        raise ConfigError(f"{mixture[0]}: sweep varies the range of one assumed kernel "
                          "and takes no mixture")
    if "sweep.oracle.family" not in cfg:
        for key in ("estimator.vn", "sweep.oracle.theta", "sweep.oracle.nugget"):
            if key in cfg:
                raise ConfigError(f"{key} needs sweep.oracle.family; without an oracle "
                                  "sweep writes no oracle columns")


def cmd_sweep(args, extra) -> int:
    cfg = _load_config(args, extra)
    _check_sweep_keys(cfg)
    _, measure, predictor, _, eps, clamp = _inputs(cfg)
    thetas = _sweep_thetas(cfg)
    if not thetas:
        raise ConfigError("sweep grid is empty")
    oracle = None
    if "sweep.oracle.family" in cfg:
        oracle = moments.build_bundle(predictor, _kernel_from(cfg, "sweep.oracle"), measure,
                                      compute_Vn=get_bool(cfg, "estimator.vn", False))
    kernels = [_kernel_from(cfg, "estimator.kernel", theta_override=theta) for theta in thetas]
    bundles, _ = moments.predictor_walk(predictor, measure, kernels,
                                        lambda bundle: [eps] if clamp else [], oracle=oracle)
    rows = []
    for theta, bundle in zip(thetas, bundles):
        est = estimators.ise_blp(bundle, eps, clamp=clamp)
        if oracle is not None:
            rep = estimators.performance_report(bundle.gamma_blp, oracle)
            rows.append((theta, est.value, rep.e_estimate, rep.mse, rep.bias, est.estimator))
        else:
            rows.append((theta, est.value, "", "", "", est.estimator))
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "sweep.csv")
    write_csv(path, ["theta_blp", "estimate", "e_estimate", "mse", "bias", "estimator"],
              rows)
    write_manifest(os.path.join(outdir, "sweep_manifest.json"), _manifest(cfg))
    print(path)
    return EXIT_OK


def cmd_reproduce(args, extra) -> int:
    cfg = _load_config(args, extra)
    unread = sorted(key for key in cfg if key != "threads")
    if unread:
        raise ConfigError(f"{unread[0]}: reproduce reads only threads; each experiment "
                          "fixes its own settings")
    threads = get_int(cfg, "threads", numerics.default_workers())
    if threads < 1:
        raise ConfigError(f"threads: expected at least 1, got {threads}")
    out = run_experiment(args.experiment, args.out or ".", threads=threads)
    print(json.dumps({"experiment": args.experiment, "csv": out.get("csv")}, indent=2))
    return EXIT_OK


def cmd_design(args, extra) -> int:
    cfg = _load_config(args, extra)
    design = _build_design(cfg)
    text = design_to_csv(design)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "design.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_selftest(args, extra) -> int:
    ok = run_selftest(verbose=True)
    return EXIT_OK if ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="looise",
        description="ISE estimation for linear predictors from weighted LOO residuals",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, flag, helptext in [
        ("estimate", cmd_estimate, "--seed", "estimate the ISE on one dataset (JSON output)"),
        ("sweep", cmd_sweep, "--seed", "sweep the assumed range parameter (CSV output)"),
        ("reproduce", cmd_reproduce, "--threads", "rerun a published experiment at desk scale"),
        ("design", cmd_design, "--seed", "generate a design and write it as CSV"),
        ("selftest", cmd_selftest, None, "run the built-in invariant suite"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        if flag is None:
            continue
        p.add_argument("--config", help="flat key=value config file")
        # a string default goes through `type` too, so LOOISE_SEED=x fails as --seed x
        p.add_argument(flag, type=int, default=os.environ.get("LOOISE_" + flag[2:].upper()))
        p.add_argument("--out", default=os.environ.get("LOOISE_OUT"), help="output directory")
        if name == "reproduce":
            p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    return parser


def _split_extras(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Peel off --dotted.key=value overrides (config keys used as flags)."""
    known: list[str] = []
    extra: dict[str, str] = {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and ("." in tok.split("=", 1)[0]):
            body = tok[2:]
            if "=" in body:
                key, value = body.split("=", 1)
            else:
                key = body
                i += 1
                if i >= len(argv):
                    raise ConfigError(f"flag --{key} expects a value")
                value = argv[i]
            extra[key] = value
        else:
            known.append(tok)
        i += 1
    return known, extra


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, extra = _split_extras(argv)
        args = make_parser().parse_args(argv)
        return args.handler(args, extra)
    except (ConfigError, UnknownExperiment, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (LooiseError, ValueError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
