"""Property tests over random inputs: invariants the maths guarantees."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_design, small_measure
from looise.estimators import trend_corrected_ise
from looise.kernels import KernelSpec
from looise.moments import build_bundle, mixture_bundle
from looise.predictors import SimpleKriging

PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


@st.composite
def bundles(draw):
    """A simple-kriging predictor and a single-kernel or two-kernel mixture
    bundle on a small scrambled-Sobol design and support."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(4, 8))
    seed = draw(st.integers(0, 10_000))
    design = random_design(d, n, seed=seed)
    measure = small_measure(d, 32, seed=seed + 1)
    pred = SimpleKriging(KernelSpec("matern52", draw(st.floats(2.0, 20.0))), design)
    thetas = st.floats(3.0, 30.0)
    R = pred.loo_operator()
    if draw(st.booleans()):
        bundle = build_bundle(R, pred, KernelSpec("matern32", draw(thetas)), design, measure)
    else:
        nu = draw(st.floats(0.05, 0.95))
        kernels = [KernelSpec("matern32", draw(thetas)), KernelSpec("gaussian", draw(thetas))]
        bundle = mixture_bundle(kernels, [nu, 1.0 - nu], R, pred, design, measure)
    return bundle


def _estimates(bundle, y):
    return [trend_corrected_ise(bundle, y, estimator, clamp).value
            for estimator in ("blp", "blup") for clamp in (True, False)]


@PROPERTY_SETTINGS
@given(bundle=bundles(), data=st.data(), c=st.floats(0.1, 10.0))
def test_trend_corrected_estimates_scale_with_the_square(bundle, data, c):
    y = np.asarray(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=bundle.n,
                                      max_size=bundle.n)))
    for plain, scaled in zip(_estimates(bundle, y), _estimates(bundle, c * y)):
        assert np.isclose(scaled, c * c * plain, rtol=1e-12, atol=0.0)


@PROPERTY_SETTINGS
@given(bundle=bundles(), c=st.floats(-10.0, 10.0).filter(lambda v: abs(v) > 1e-3))
def test_constant_data_is_all_trend(bundle, c):
    target = c * c * bundle.sum_to_one_defect
    assert target > 0.0
    for estimator in ("blp", "blup"):
        for clamp in (True, False):
            est = trend_corrected_ise(bundle, np.full(bundle.n, c), estimator, clamp)
            assert np.isclose(est.trend_amount, target, rtol=1e-12, atol=0.0)  # tau = c
            assert np.isclose(est.value, target, rtol=1e-12, atol=0.0)
