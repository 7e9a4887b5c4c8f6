"""The three benchmark workloads: their inputs, one request each, and the
checks every request's output must pass.

Each workload is a closed loop with one client: a request is one call into
the package's public entry points (``looise.cli.main`` for ``estimate`` and
``sweep``, ``looise.reproduce.run_table2`` for ``select``), and the next
request starts only when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

WORKLOADS = ("estimate", "sweep", "select")

# Seed whose outputs were recorded in reference.json at the commit that
# introduced the benchmark; other seeds are checked for validity only.
DEFAULT_SEED = 1

# Relative tolerance of the repository's reference-oracle comparison.
REL_TOL = 1e-9

# run_table2 means at n_designs=2, recorded at the commit that introduced
# the benchmark. Its inputs come from the experiment's published seeds
# (design_base = 1701), so they do not depend on the workload seed.
SELECT_MEANS = {
    "oracle": 0.17625692760686923,
    "loo": 0.231862534442983,
    "blp": 0.2054028862350039,
    "empirical_mean": 0.724852894462257,
}

SIZES = {
    # d, n, log2 of the support size N
    "estimate": (4, 200, 15),
    "sweep": (2, 100, 12),
}

_PREDICTOR = (
    "predictor.variant = simple-kriging\n"
    "predictor.kernel.family = matern52\n"
    "predictor.kernel.theta = 5\n"
)

CONFIGS = {
    "estimate": _PREDICTOR + (
        "estimator.kernel.family = matern32\n"
        "estimator.kernel.theta = loo\n"
        "trend.mode = zero\n"
        "estimator.clamp = true\n"
    ),
    "sweep": _PREDICTOR + (
        "estimator.kernel.family = matern32\n"
        "estimator.clamp = true\n"
        "estimator.vn = true\n"
        "sweep.log_min = 1\n"
        "sweep.log_max = 100\n"
        "sweep.count = 20\n"
        "sweep.oracle.family = matern32\n"
        "sweep.oracle.theta = 10\n"
    ),
}

# Stream path of the GP draw, so the two workloads never share a draw.
_GP_STREAM = {"estimate": 0, "sweep": 1}


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    workdir: str  # relative to the checkout root
    threads: int = 1  # replication-pool size for select

    @property
    def config(self) -> str:
        return os.path.join(self.workdir, "run.cfg")


def select_threads() -> int:
    """`looise reproduce table2` default thread count, capped at two."""
    return min(2, os.cpu_count() or 1)


def make_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    """Write the workload's inputs under `workdir`; the same seed gives the
    same bytes. `select` needs no files: its inputs are fixed by the
    experiment's own seeds."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    inputs = Inputs(workload, seed, workdir, select_threads())
    if workload == "select":
        return inputs
    from looise.designs import design_to_csv, sobol_design
    from looise.kernels import KernelSpec
    from looise.testbed import sample_gp

    d, n, log2_N = SIZES[workload]
    design = sobol_design(d, n, scramble_seed=seed)
    y = sample_gp(KernelSpec("matern32", 10.0), design.points, seed, _GP_STREAM[workload])
    design_path = os.path.join(workdir, "design.csv")
    data_path = os.path.join(workdir, "y.csv")
    with open(design_path, "w", newline="") as fh:
        fh.write(design_to_csv(design))
    with open(data_path, "w") as fh:
        fh.write("y\n" + "".join(f"{v:.17g}\n" for v in y))
    with open(inputs.config, "w") as fh:
        fh.write(f"design.file = {design_path}\n"
                 f"data.file = {data_path}\n"
                 f"measure.sobol_n = {2 ** log2_N}\n" + CONFIGS[workload])
    return inputs


@dataclass
class Outcome:
    ok: bool
    problem: str = ""


def _run_cli(argv: list[str]) -> tuple[int, str]:
    import looise.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = looise.cli.main(argv)
    return code, err.getvalue().strip()


def request(inputs: Inputs, outdir: str):
    """Run one request; return what `check` needs. Raises on failure."""
    if inputs.workload == "select":
        import looise.reproduce

        return looise.reproduce.run_table2(outdir, threads=inputs.threads, n_designs=2)
    code, err = _run_cli([inputs.workload, "--config", inputs.config, "--out", outdir])
    if code != 0:
        raise RuntimeError(f"looise {inputs.workload} exited {code}: {err}")
    name = "estimate.json" if inputs.workload == "estimate" else "sweep.csv"
    with open(os.path.join(outdir, name)) as fh:
        return fh.read()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _finite_numbers(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return False


ESTIMATE_KEYS = ("ise_loo", "ise_blp", "ise_blp_unbiased", "theta_used")
SWEEP_COLUMNS = ("theta_blp", "estimate", "e_estimate", "mse", "bias")


def check_estimate(text: str, reference: dict | None) -> Outcome:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return Outcome(False, f"estimate JSON does not parse: {exc}")
    values = {k: payload.get(k) for k in ESTIMATE_KEYS}
    if not _finite_numbers(payload) or any(not isinstance(v, float) for v in values.values()):
        return Outcome(False, "estimate has a missing or non-finite value")
    if values["ise_blp"] < 0 or values["ise_blp_unbiased"] < 0:
        return Outcome(False, "clamped estimate is negative")
    if not 5.0 <= values["theta_used"] <= 50.0:
        return Outcome(False, f"theta_used {values['theta_used']} outside [5, 50]")
    if reference is not None:
        for k in ESTIMATE_KEYS:
            if not _close(values[k], reference[k]):
                return Outcome(False, f"{k} = {values[k]!r}, recorded {reference[k]!r}")
    return Outcome(True)


def check_sweep(text: str, reference: dict | None) -> Outcome:
    rows = list(csv.DictReader(io.StringIO(text)))
    try:
        table = [[float(r[c]) for c in SWEEP_COLUMNS] for r in rows]
    except (KeyError, TypeError, ValueError) as exc:
        return Outcome(False, f"sweep.csv has a non-numeric cell: {exc}")
    if len(table) != 20:
        return Outcome(False, f"sweep.csv has {len(table)} rows, expected 20")
    if not all(math.isfinite(v) for row in table for v in row):
        return Outcome(False, "sweep.csv has a non-finite value")
    mse = SWEEP_COLUMNS.index("mse")
    if any(row[mse] < 0 for row in table):
        return Outcome(False, "oracle mse is negative")
    if reference is not None:
        for row, ref in zip(table, reference["rows"]):
            if not all(_close(a, b) for a, b in zip(row, ref)):
                return Outcome(False, f"sweep row {row} differs from recorded {ref}")
    return Outcome(True)


def check_select(result: dict) -> Outcome:
    means = result.get("means", {})
    rows = [[float(v) for v in r] for r in result.get("rows", [])]
    if len(rows) != 2 or not all(math.isfinite(v) for r in rows for v in r):
        return Outcome(False, "table2 rows are missing or non-finite")
    for k, ref in SELECT_MEANS.items():
        if not _close(means.get(k, math.nan), ref):
            return Outcome(False, f"table2 mean {k} = {means.get(k)!r}, recorded {ref!r}")
    return Outcome(True)


def comparable(output):
    """The part of a request's output that must not depend on tracing."""
    if isinstance(output, dict):  # run_table2's result; its csv path varies
        return output["rows"], output["means"]
    return output


def load_reference(workload: str, seed: int) -> dict | None:
    """Recorded outputs for the default seed, or None for other seeds."""
    if seed != DEFAULT_SEED or workload == "select":
        return None
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path) as fh:
        return json.load(fh)[workload]


def check(inputs: Inputs, output, reference: dict | None) -> Outcome:
    if inputs.workload == "estimate":
        return check_estimate(output, reference)
    if inputs.workload == "sweep":
        return check_sweep(output, reference)
    return check_select(output)
