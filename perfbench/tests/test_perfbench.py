"""Tests of the benchmark itself: tracer hygiene, self-time arithmetic and
seeded inputs. Run with ``python3 -m pytest perfbench/tests``."""

import functools
import sys
import threading

import pytest

import tracer as tracing
import workloads
from tracer import Span, Tracer, layer_metrics, self_times


def _bindings():
    """Every binding the tracer may touch: looise module globals, class
    attributes and the experiment registry, by identity."""
    import looise.cli  # noqa: F401
    import looise.reproduce

    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "looise" or modname.startswith("looise."):
            for attr, value in vars(module).items():
                out[(modname, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("looise"):
                    for cattr, cvalue in vars(value).items():
                        out[(modname, attr, cattr)] = cvalue
    for key, value in looise.reproduce.EXPERIMENTS.items():
        out[("EXPERIMENTS", key)] = value
    return out


def test_tracer_puts_back_every_function_it_wrapped():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        during = _bindings()
        changed = {k for k in before if during.get(k) is not before[k]}
    after = _bindings()
    # every traced name is rebound wherever the package binds it ...
    assert ("looise.kernels", "kernel_matrix") in changed
    assert ("looise.designs", "kernel_matrix") in changed
    assert ("looise.moments", "kernel_matrix") in changed
    assert ("looise.numerics", "spd_factorize") in changed
    assert ("looise.reproduce", "theta_loo") in changed
    assert ("EXPERIMENTS", "table2") in changed
    assert ("looise.predictors", "SimpleKriging", "weights_matrix") in changed
    assert ("looise.moments", "WeightSource", "block") in changed
    assert isinstance(during[("looise.predictors", "LinearPredictor", "loo")],
                      functools.cached_property)
    # ... and restored afterwards, by identity
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def _small_inputs(tmp_path, workload: str, seed: int) -> workloads.Inputs:
    from looise.designs import design_to_csv, sobol_design
    from looise.kernels import KernelSpec
    from looise.testbed import sample_gp

    design = sobol_design(2, 30, scramble_seed=seed)
    y = sample_gp(KernelSpec("matern32", 10.0), design.points, seed)
    (tmp_path / "design.csv").write_text(design_to_csv(design))
    (tmp_path / "y.csv").write_text("y\n" + "".join(f"{v:.17g}\n" for v in y))
    inputs = workloads.Inputs(workload, seed, str(tmp_path))
    (tmp_path / "run.cfg").write_text(
        f"design.file = {tmp_path / 'design.csv'}\ndata.file = {tmp_path / 'y.csv'}\n"
        "measure.sobol_n = 512\n" + workloads.CONFIGS[workload])
    return inputs


@pytest.mark.parametrize("workload", ["estimate", "sweep"])
def test_traced_outputs_are_bit_identical(tmp_path, workload):
    inputs = _small_inputs(tmp_path, workload, seed=3)
    plain = workloads.request(inputs, str(tmp_path / "plain"))
    tracer = Tracer()
    tracer.request = 0
    with tracer:
        traced = workloads.request(inputs, str(tmp_path / "traced"))
    assert traced == plain
    assert workloads.check(inputs, plain, None).ok
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "kernels.cross_matrix", "moments.build_bundle",
            "numerics.spd_factorize", "predictors.weights_matrix"} <= names


def _span(sid, parent, start, end, name="x", thread=1, request=0, **attrs):
    return Span(sid, parent, name, start, end, request, thread, attrs)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 4.0, 8.0),
        _span(3, 2, 5.0, 6.0),
        # a root span in a pool thread overlaps span 0 but is not its child
        _span(4, None, 2.0, 9.0, thread=2),
        _span(5, 4, 2.5, 4.5, thread=2),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 2.0 - 4.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(7.0 - 2.0)
    assert st[5] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 6.0), _span(2, 0, 4.0, 12.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_on_a_synthetic_pool_request():
    table2, theta, km = "reproduce.run_table2", "designs.theta_loo", "kernels.kernel_matrix"
    spans = [
        _span(0, None, 0.0, 10.0, table2, thread=1),
        _span(1, None, 1.0, 9.0, theta, thread=2),
        _span(2, 1, 2.0, 3.0, km, thread=2, key="a"),
        _span(3, 1, 3.0, 4.0, km, thread=2, key="a"),
        _span(4, None, 1.0, 5.0, theta, thread=3),
        _span(5, 4, 1.5, 2.0, km, thread=3, key="b"),
        _span(6, None, 5.0, 6.0, km, thread=3, key="b"),
    ]
    m = layer_metrics(spans, requests=1, pool_threads=2)
    assert m["reproduce.run_table2.total_s"] == pytest.approx(10.0)
    assert m["designs.theta_loo.calls"] == 2
    assert m["designs.theta_loo.total_s"] == pytest.approx(12.0)
    assert m["designs.theta_loo.self_s"] == pytest.approx(6.0 + 3.5)
    assert m["designs.theta_loo.kernel_builds"] == 3
    assert m["kernels.kernel_matrix.calls"] == 4
    assert m["kernels.kernel_matrix.useful_frac"] == pytest.approx(2 / 4)
    # busy time = the pool threads' root spans: 8 + 4 + 1 of 2 threads x 10 s
    assert m["reproduce.pool_busy_frac"] == pytest.approx(13.0 / 20.0)
    assert set(m) == set(tracing.PER_LAYER)


def test_weights_useful_fraction_counts_distinct_rows_per_predictor():
    import numpy as np

    tracer = Tracer()

    class Pred:
        pass

    p, q = Pred(), Pred()
    X = np.arange(12.0).reshape(6, 2)
    spans = []
    for sid, (pred, rows) in enumerate([(p, X), (p, X[:3]), (q, X[:3])]):
        attrs = tracing._weights_rows((pred, rows), {}, None, tracer)
        spans.append(_span(sid, None, 0.0, 1.0, "predictors.weights_matrix", **attrs))
    m = layer_metrics(spans, requests=1)
    assert m["predictors.weights_matrix.rows"] == 12
    assert m["predictors.weights_matrix.useful_frac"] == pytest.approx(9 / 12)


def test_tracer_records_pool_threads_with_their_own_roots():
    tracer = Tracer()
    traced = tracer.wrap("outer", lambda f: f())
    inner = tracer.wrap("inner", lambda: None)
    tracer.request = 7
    traced(lambda: [t.start() or t.join(timeout=10) for t in
                    [threading.Thread(target=inner) for _ in range(2)]])
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["outer"]
    assert len(by_name["inner"]) == 2
    assert all(s.parent is None and s.thread != outer.thread and s.request == 7
               for s in by_name["inner"])


def _input_bytes(workdir, workload, seed):
    workloads.make_inputs(workload, seed, str(workdir))
    return [(workdir / name).read_bytes() for name in ("design.csv", "y.csv")]


@pytest.mark.parametrize("workload", ["estimate", "sweep"])
def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path, workload):
    a = _input_bytes(tmp_path / "a", workload, 5)
    b = _input_bytes(tmp_path / "b", workload, 5)
    c = _input_bytes(tmp_path / "c", workload, 6)
    assert a == b
    assert a[0] != c[0] and a[1] != c[1]
