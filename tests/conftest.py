import os

import numpy as np
import pytest

import looise
from looise.designs import Design, sobol_design, sobol_measure, sobol_points, uniform_measure
from looise.kernels import KernelSpec


@pytest.fixture
def grid1d_design():
    return Design(points=np.linspace(0.0, 1.0, 10)[:, None])


@pytest.fixture
def measure1d():
    return sobol_measure(1, 256)


def random_design(d: int, n: int, seed: int) -> Design:
    """Scrambled-Sobol design; convenient seeded test input."""
    return sobol_design(d, n, scramble_seed=seed)


def gp_draw(kernel: KernelSpec, design: Design, seed: int) -> np.ndarray:
    from looise.testbed import sample_gp

    return sample_gp(kernel, design.points, seed)


def predict(predictor, y, x) -> float:
    """The prediction w(x)^T y at one point x."""
    return float(predictor.weights(x) @ np.asarray(y, dtype=float))


def predict_many(predictor, y, X) -> np.ndarray:
    """Predictions w(x)^T y at every row of X."""
    return predictor.weights_matrix(X) @ np.asarray(y, dtype=float)


def small_measure(d: int, N: int, seed: int | None = None):
    return uniform_measure(sobol_points(d, N, scramble_seed=seed))


def subprocess_env(**overrides) -> dict:
    """The environment for a fresh interpreter that imports this checkout's looise,
    with `overrides` set; a None value unsets a variable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(looise.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for key, value in overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env
