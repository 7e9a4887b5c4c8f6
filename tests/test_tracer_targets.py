"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name. Its own tests sit outside the Tier-1 test paths, so a rename in
`src/looise` that breaks one of its targets has to fail here."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_target_resolves():
    tracer = _load_tracer()
    for modname, attr, _, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), \
            f"{modname}.{attr}"
    for modname, clsname, attr, _, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(modname), clsname, None)
        # the tracer replaces the class's own attribute, not an inherited one
        assert cls is not None and attr in vars(cls), f"{modname}.{clsname}.{attr}"
    predictors = importlib.import_module("looise.predictors")
    classes = [c for c in vars(predictors).values()
               if isinstance(c, type) and issubclass(c, predictors.LinearPredictor)]
    for attr, _, _ in tracer.PREDICTOR_METHODS:
        assert any(attr in vars(c) for c in classes), f"LinearPredictor.{attr}"


def test_weight_source_keeps_the_measure_the_tracer_reads():
    from looise.designs import Design, sobol_measure
    from looise.moments import WeightSource
    from looise.predictors import TableWeights

    measure = sobol_measure(1, 16)
    design = Design(points=np.array([[0.1], [0.5], [0.9]]))
    source = WeightSource(TableWeights(measure.points, np.zeros((16, 3)), design), measure)
    assert source._measure.size == 16  # read by the tracer's support-pass counter
    assert source.block(4, 8).shape == (4, 3)
