"""looise benchmark: closed-loop workloads timed end to end, or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the machine and environment. The full run record
(every latency, and with ``--trace 1`` every span) is written under
``.perfbench_out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 3


def _use_checkout_source() -> None:
    """Import looise from ./src of the checkout, never from elsewhere."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "looise", "__init__.py")):
        sys.exit("perfbench: no src/looise here; run from the root of a looise checkout")
    sys.path.insert(0, src)


def _setup(workload: str, seed: int, workdir: str):
    """Import looise and generate the workload's inputs; return them and the seconds taken."""
    start = time.perf_counter()
    import looise.cli  # noqa: F401
    import looise.reproduce  # noqa: F401

    inputs = workloads.make_inputs(workload, seed, workdir)
    return inputs, time.perf_counter() - start


def _probe_setup_seconds(workload: str, seed: int, repeats: int) -> list[float]:
    """Set-up times in fresh interpreters, since the import is paid once per process."""
    times = []
    for _ in range(repeats):
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed), "--workdir", workdir],
                capture_output=True, text=True, timeout=120, check=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _blas_info() -> dict:
    import numpy
    import scipy

    info = {}
    for mod in (numpy, scipy):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]
            info[mod.__name__] = {k: deps[k].get("openblas configuration") or deps[k].get("name")
                                  for k in ("blas", "lapack") if k in deps}
        except (KeyError, TypeError, AttributeError):
            info[mod.__name__] = "unknown"
    return info


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Loop:
    """One closed-loop client: the next request starts when the last one returns."""

    def __init__(self, inputs: workloads.Inputs, reference):
        self.inputs = inputs
        self.reference = reference

    def one(self, outdir: str):
        start = time.perf_counter()
        try:
            output = workloads.request(self.inputs, outdir)
        except Exception as exc:  # a failed request is counted, never fatal
            latency = time.perf_counter() - start
            return latency, workloads.Outcome(False, f"{type(exc).__name__}: {exc}"), None
        latency = time.perf_counter() - start
        outcome = workloads.check(self.inputs, output, self.reference)
        return latency, outcome, workloads.comparable(output)

    def window(self, seconds: float | None = None, count: int | None = None) -> dict:
        """Run requests for `seconds` (at least one) or exactly `count` of them."""
        latencies, outcomes, outputs = [], [], []
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        while True:
            outdir = tempfile.mkdtemp(prefix="req-", dir=OUT_DIR)
            try:
                latency, outcome, output = self.one(outdir)
            finally:
                shutil.rmtree(outdir, ignore_errors=True)
            latencies.append(latency)
            outcomes.append(outcome)
            outputs.append(output)
            elapsed = time.perf_counter() - t0
            if (count is not None and len(latencies) >= count) or \
                    (count is None and elapsed >= seconds):
                break
        return {"latencies": latencies, "outcomes": outcomes, "outputs": outputs, "wall": elapsed,
                "cpu": _cpu_seconds() - cpu0}


def _tail(latencies: list[float]) -> dict:
    """Highest of p99/p90/p75 with at least ten samples beyond it, if any."""
    for p in (99, 90, 75):
        if len(latencies) * (100 - p) / 100 >= 10:
            return {f"latency_p{p}_s": statistics.quantiles(latencies, n=100)[p - 1]}
    return {}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    loadavg_start = os.getloadavg()
    inputs_dir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        # this process's own set-up is the first sample; it must come before
        # anything else here imports numpy
        inputs, first_setup = _setup(workload, seed, inputs_dir)
        env = _environment()
        env["loadavg_start"] = loadavg_start
        setup_s = None
        if not trace:
            setup_s = statistics.median(
                [first_setup] + _probe_setup_seconds(workload, seed, SETUP_REPEATS - 1))
        loop = Loop(inputs, workloads.load_reference(workload, seed))
        plain = loop.window(seconds=seconds)
        traced = spans = None
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            with tracer:
                loop_traced = TracedLoop(inputs, loop.reference, tracer)
                traced = loop_traced.window(count=len(plain["latencies"]))
            spans = tracer.spans
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    outcomes = plain["outcomes"] + (traced["outcomes"] if traced else [])
    failed = sum(not o.ok for o in outcomes)
    if traced:
        # traced requests must reproduce the untraced outputs bit for bit
        for a, b, outcome in zip(plain["outputs"], traced["outputs"], traced["outcomes"]):
            if outcome.ok and a != b:
                outcome.ok, outcome.problem = False, "traced output differs from untraced output"
                failed += 1
    n = len(plain["latencies"])
    p50 = statistics.median(plain["latencies"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "requests": n, "latencies_s": plain["latencies"],
        "problems": sorted({o.problem for o in outcomes if not o.ok}),
        **_tail(plain["latencies"]),
    }
    if not trace:
        metrics = {
            "latency_p50_s": _metric(p50, "s"),
            "requests_per_min": _metric(60.0 * n / plain["wall"], "1/min"),
            "cpu_s_per_request": _metric(plain["cpu"] / n, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                   "MB"),
            "setup_s": _metric(setup_s, "s"),
        }
    else:
        import tracer as tracing

        layers = tracing.layer_metrics(spans, len(traced["latencies"]), inputs.threads)
        layers["process.cpu_util"] = plain["cpu"] / plain["wall"]
        layers["trace.overhead_frac"] = statistics.median(traced["latencies"]) / p50 - 1.0
        layers["failed_frac"] = failed / len(outcomes)
        metrics = {k: _metric(v, tracing.UNITS[k]) for k, v in layers.items()}
        record["traced_latencies_s"] = traced["latencies"]
        _write_spans(spans, workload, seed)
    record["metrics"] = metrics
    return {"record": record, "attempted": len(outcomes), "failed": failed}


class TracedLoop(Loop):
    """The same requests, each tagged with a request id for the tracer."""

    def __init__(self, inputs, reference, tracer):
        super().__init__(inputs, reference)
        self.tracer = tracer
        self.count = 0

    def one(self, outdir: str):
        self.tracer.request = self.count
        self.count += 1
        try:
            return super().one(outdir)
        finally:
            self.tracer.request = None


def _write_spans(spans, workload: str, seed: int) -> None:
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.sid, "parent": s.parent, "name": s.name,
                                 "start": s.start, "end": s.end, "request": s.request,
                                 "thread": s.thread}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seed = args.seed % (1 << 63)
    _use_checkout_source()

    if args.setup_probe:
        print(_setup(args.workload, seed, args.workdir)[1])
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    result = run(args.workload, seed, args.seconds, bool(args.trace))
    record = result["record"]
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"environment": record["environment"], "requests": record["requests"],
                      "problems": record["problems"]}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
