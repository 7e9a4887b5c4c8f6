"""Span tracer wrapped around the package's public functions from outside.

`Tracer.install()` replaces each traced function or method at every name
the package binds it under (module globals of every loaded ``looise.*``
module, the class attribute for methods, and the experiment registry),
and `Tracer.uninstall()` puts every original back. Each call records one
span: name, start, end, parent span, request id and thread. Spans stay
in memory; `layer_metrics` turns the spans of a set of requests into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int | None  # enclosing span on the same thread, None at a thread's root
    name: str
    start: float
    end: float
    request: int | None
    thread: int
    attrs: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Counters recorded next to a span: hook(args, kwargs, result, tracer) -> dict
# ---------------------------------------------------------------------------


def _weights_rows(args, kwargs, result, tracer):
    predictor, X = args[0], args[1] if len(args) > 1 else kwargs["X"]
    X = np.atleast_2d(np.asarray(X, dtype=float))
    serial = np.full((len(X), 1), tracer.serial(predictor), dtype=float)
    return {"rows": len(X), "row_keys": np.hstack([serial, X])}


def _distinct_rows(blocks: list[np.ndarray]) -> int:
    """Number of distinct (predictor, point) rows, by exact bytes."""
    if not blocks:
        return 0
    rows = np.ascontiguousarray(np.concatenate(blocks))
    return len(np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))))


def _cross_entries(args, kwargs, result, tracer):
    return {"entries": int(np.size(result))}


def _kernel_key(args, kwargs, result, tracer):
    spec, X = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["X"], dtype=float)
    return {"key": (spec, X.shape, X.tobytes())}


def _factor_info(args, kwargs, result, tracer):
    n = int(np.shape(args[0] if args else kwargs["A"])[0])
    return {"flops": n ** 3 / 3.0, "jittered": int(result.jitter_applied > 0)}


def _solve_cols(args, kwargs, result, tracer):
    B = np.shape(args[1] if len(args) > 1 else kwargs["B"])
    return {"rhs_cols": 1 if len(B) == 1 else int(B[1])}


def _block_passes(args, kwargs, result, tracer):
    source, lo, hi = args[0], args[1], args[2]
    return {"passes": (hi - lo) / source._measure.size}


# (module, attribute, span name, counter hook) of traced functions
FUNCTIONS = [
    ("looise.cli", "main", "cli.main", None),
    ("looise.designs", "theta_loo", "designs.theta_loo", None),
    ("looise.designs", "greedy_packing", "designs.greedy_packing", None),
    ("looise.designs", "sobol_points", "designs.sobol", None),
    ("looise.designs", "sobol_design", "designs.sobol", None),
    ("looise.designs", "sobol_measure", "designs.sobol", None),
    ("looise.moments", "build_bundle", "moments.build_bundle", None),
    # the V_n double integral of build_bundle(compute_Vn=True)
    ("looise.moments", "_vn_component", "moments.build_bundle_vn", None),
    ("looise.moments", "pointwise_c_rho", "moments.pointwise_c_rho", None),
    ("looise.kernels", "cross_matrix", "kernels.cross_matrix", _cross_entries),
    ("looise.kernels", "kernel_matrix", "kernels.kernel_matrix", _kernel_key),
    ("looise.numerics", "spd_factorize", "numerics.spd_factorize", _factor_info),
    ("looise.numerics", "solve", "numerics.solve", _solve_cols),
    ("looise.numerics", "inverse", "numerics.inverse", None),
    ("looise.numerics", "bordered_inverse", "numerics.bordered_inverse", None),
    ("looise.estimators", "ise_blp", "estimators.ise_blp", None),
    ("looise.estimators", "ise_blup", "estimators.ise_blup", None),
    ("looise.estimators", "trend_corrected_ise", "estimators.trend_corrected_ise", None),
    ("looise.estimators", "performance_report", "estimators.performance_report", None),
    ("looise.testbed", "true_ise", "testbed.true_ise", None),
    ("looise.testbed", "environmental_values", "testbed.environmental_values", None),
    ("looise.reproduce", "run_table2", "reproduce.run_table2", None),
]

# (module, class, attribute, span name, counter hook) of traced methods;
# predictor methods are traced on every LinearPredictor subclass that defines them
METHODS = [
    ("looise.moments", "MomentBundle", "solve_S", "moments.solve_S", None),
    ("looise.moments", "WeightSource", "block", "moments.weight_block", _block_passes),
    ("looise.predictors", "LinearPredictor", "loo", "predictors.loo", None),
]
PREDICTOR_METHODS = [
    ("__init__", "predictors.init", None),
    ("weights_matrix", "predictors.weights_matrix", _weights_rows),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._serials: WeakKeyDictionary = WeakKeyDictionary()
        self._serial_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def serial(self, obj) -> int:
        """A number that identifies `obj` for its lifetime (ids get reused)."""
        with self._lock:
            if obj not in self._serials:
                self._serials[obj] = next(self._serial_ids)
            return self._serials[obj]

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, parent, name, start, end, tracer.request,
                            threading.get_ident())
                if hook is not None and result is not None:
                    span.attrs = hook(args, kwargs, result, tracer)
                tracer.spans.append(span)

        return traced

    # -- patching ----------------------------------------------------------

    def _rebind_everywhere(self, orig, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "looise" or modname.startswith("looise.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, wrapper)
        registry = getattr(sys.modules.get("looise.reproduce"), "EXPERIMENTS", {})
        for key, value in list(registry.items()):
            if value is orig:
                self._restore.append((registry, key, orig))
                registry[key] = wrapper

    def _wrap_attr(self, cls, attr: str, name: str, hook) -> None:
        orig = cls.__dict__[attr]
        if isinstance(orig, functools.cached_property):
            wrapper = functools.cached_property(self.wrap(name, orig.func, hook))
            wrapper.__set_name__(cls, attr)
        else:
            wrapper = self.wrap(name, orig, hook)
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        import looise.cli  # noqa: F401  (loads every traced module)
        import looise.reproduce  # noqa: F401

        for modname, attr, name, hook in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            self._rebind_everywhere(orig, self.wrap(name, orig, hook))
        for modname, clsname, attr, name, hook in METHODS:
            self._wrap_attr(getattr(sys.modules[modname], clsname), attr, name, hook)
        predictors = sys.modules["looise.predictors"]
        for cls in vars(predictors).values():
            if isinstance(cls, type) and issubclass(cls, predictors.LinearPredictor):
                for attr, name, hook in PREDICTOR_METHODS:
                    if attr in cls.__dict__:
                        self._wrap_attr(cls, attr, name, hook)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans.

    Children are the spans whose parent is the span; a span at the root of
    a pool thread has no parent and so is charged to no span of the
    thread that submitted the work.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def _ancestors(span: Span, by_id: dict[int, Span]):
    while span.parent is not None and span.parent in by_id:
        span = by_id[span.parent]
        yield span


PER_LAYER = (
    "cli.main.self_s",
    "designs.theta_loo.calls", "designs.theta_loo.self_s", "designs.theta_loo.total_s",
    "designs.theta_loo.kernel_builds", "designs.greedy_packing.self_s", "designs.sobol.self_s",
    "predictors.init.self_s", "predictors.loo.self_s", "predictors.weights_matrix.calls",
    "predictors.weights_matrix.self_s", "predictors.weights_matrix.rows",
    "predictors.weights_matrix.useful_frac",
    "moments.build_bundle.calls", "moments.build_bundle.self_s",
    "moments.build_bundle_vn.self_s", "moments.pointwise_c_rho.self_s",
    "moments.support_passes", "moments.solve_S.calls",
    "kernels.cross_matrix.calls", "kernels.cross_matrix.self_s", "kernels.cross_matrix.entries",
    "kernels.kernel_matrix.calls", "kernels.kernel_matrix.self_s",
    "kernels.kernel_matrix.useful_frac",
    "numerics.spd_factorize.calls", "numerics.spd_factorize.self_s",
    "numerics.spd_factorize.jittered", "numerics.spd_factorize.flops",
    "numerics.solve.calls", "numerics.solve.self_s", "numerics.solve.rhs_cols",
    "numerics.inverse.self_s", "numerics.bordered_inverse.self_s",
    "estimators.ise_blp.self_s", "estimators.ise_blup.self_s",
    "estimators.trend_corrected_ise.self_s", "estimators.performance_report.self_s",
    "testbed.true_ise.self_s", "testbed.environmental_values.self_s",
    "reproduce.run_table2.total_s", "reproduce.pool_busy_frac",
)


EXTRA = ("process.cpu_util", "trace.overhead_frac", "failed_frac")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "cpu_util")):
        return "ratio"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".support_passes"):
        return "passes"
    return "count"


UNITS = {name: _unit(name) for name in PER_LAYER + EXTRA}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], requests: int, pool_threads: int = 1) -> dict[str, float]:
    """Per-request per-layer metrics from the spans of `requests` requests.

    ``useful_frac`` counts distinct work within each request: W rows keyed
    by (predictor, exact point bytes), kernel matrices by (spec, points).
    """
    by_id = {s.sid: s for s in spans}
    selft = self_times(spans)
    sums: dict[str, float] = defaultdict(float)
    distinct_rows = distinct_builds = 0
    per_request: dict[object, list[Span]] = defaultdict(list)
    for s in spans:
        per_request[s.request].append(s)
        sums[f"{s.name}.calls"] += 1
        sums[f"{s.name}.self_s"] += selft[s.sid]
        if not any(a.name == s.name for a in _ancestors(s, by_id)):
            sums[f"{s.name}.total_s"] += s.end - s.start
        for key in ("rows", "entries", "flops", "jittered", "rhs_cols", "passes"):
            if key in s.attrs:
                sums[f"{s.name}.{key}"] += s.attrs[key]
        if s.name == "kernels.kernel_matrix" and any(
                a.name == "designs.theta_loo" for a in _ancestors(s, by_id)):
            sums["designs.theta_loo.kernel_builds"] += 1
    for group in per_request.values():
        distinct_rows += _distinct_rows([s.attrs["row_keys"] for s in group
                                         if "row_keys" in s.attrs])
        distinct_builds += len({s.attrs["key"] for s in group if "key" in s.attrs})
        for run in (s for s in group if s.name == "reproduce.run_table2"):
            busy = sum(s.end - s.start for s in group
                       if s.parent == run.sid or (s.parent is None and s.thread != run.thread))
            sums["pool_busy"] += busy / (pool_threads * (run.end - run.start))
    out = {name: sums.get(name, 0.0) / requests for name in PER_LAYER}
    out["moments.support_passes"] = sums["moments.weight_block.passes"] / requests
    out["predictors.weights_matrix.useful_frac"] = _ratio(
        distinct_rows, sums["predictors.weights_matrix.rows"])
    out["kernels.kernel_matrix.useful_frac"] = _ratio(
        distinct_builds, sums["kernels.kernel_matrix.calls"])
    out["reproduce.pool_busy_frac"] = sums["pool_busy"] / requests
    return out
