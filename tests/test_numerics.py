import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from looise import numerics
from looise.designs import regular_grid
from looise.errors import Asymmetric, DimensionMismatch, NotPositiveDefinite, SingularBorder
from looise.kernels import KernelSpec, kernel_matrix


def test_factorize_identity():
    F = numerics.spd_factorize(np.eye(3))
    assert np.array_equal(F.lower, np.eye(3))
    assert F.jitter_applied == 0.0


def test_asymmetric_rejected():
    A = np.eye(3)
    A[0, 1] = 1e-6
    with pytest.raises(Asymmetric):
        numerics.spd_factorize(A)


def test_jitter_rescues_rounding_level_indefiniteness():
    # PD matrix with a tiny negative rounding perturbation on the diagonal
    K = kernel_matrix(KernelSpec("gaussian", 1.5), np.linspace(0, 1, 6)[:, None])
    A = K - 0.99 * np.linalg.eigvalsh(K).min() * np.eye(6)
    F = numerics.spd_factorize(A)
    rel = np.linalg.norm(F.reconstruct() - (A + F.jitter_applied * np.eye(6)))
    assert rel / np.linalg.norm(A) < 1e-10


def test_solve_identity():
    F = numerics.spd_factorize(np.eye(4))
    b = np.arange(4.0)
    assert np.allclose(numerics.solve(F, b), b)


def test_solve_matches_explicit_inverse():
    K = kernel_matrix(KernelSpec("matern52", 3.0), np.linspace(0, 1, 5)[:, None])
    F = numerics.spd_factorize(K)
    x = numerics.solve(F, np.ones(5))
    expected = np.linalg.inv(K) @ np.ones(5)
    assert np.allclose(x, expected, rtol=1e-9)
    # the ordinary-kriging scalar 1^T K^{-1} 1
    assert np.isclose(np.ones(5) @ x, np.ones(5) @ expected, rtol=1e-10)


def test_solve_inverse_consistency():
    K = kernel_matrix(KernelSpec("matern32", 8.0), regular_grid(2, 5).points)
    F = numerics.spd_factorize(K)
    X = numerics.solve(F, K)
    assert np.linalg.norm(X - np.eye(25)) < 1e-9


def test_inverse_is_solved_once_and_read_only(monkeypatch):
    F = numerics.spd_factorize(kernel_matrix(KernelSpec("matern32", 8.0),
                                             regular_grid(2, 5).points))
    solves = []
    cho_solve = numerics.scipy.linalg.cho_solve
    monkeypatch.setattr(numerics.scipy.linalg, "cho_solve",
                        lambda *args, **kw: solves.append(args) or cho_solve(*args, **kw))
    M = numerics.inverse(F)
    assert numerics.inverse(F) is M
    assert len(solves) == 1
    with pytest.raises(ValueError):
        M[0, 0] = 0.0


def test_inverse_diagonal_matches_the_explicit_inverse():
    K = kernel_matrix(KernelSpec("matern52", 6.0), regular_grid(2, 5).points)
    diag = numerics.inverse_diagonal(numerics.spd_factorize(K))
    assert np.allclose(diag, np.diag(np.linalg.inv(K)), rtol=1e-10, atol=0.0)


def test_solve_dimension_mismatch():
    F = numerics.spd_factorize(np.eye(3))
    with pytest.raises(DimensionMismatch):
        numerics.solve(F, np.ones(4))


def test_bordered_inverse_identity_2x2():
    Mbar = numerics.bordered_inverse(numerics.spd_factorize(np.eye(2)))
    assert np.isclose(Mbar[0, 0], 0.5)
    assert np.isclose(Mbar[1, 1], 0.5)
    Kbar = np.block([[np.eye(2), np.ones((2, 1))], [np.ones((1, 2)), np.zeros((1, 1))]])
    assert np.linalg.norm(Mbar @ Kbar - np.eye(3)) < 1e-9


def test_bordered_inverse_n1():
    K11 = 2.5
    Mbar = numerics.bordered_inverse(numerics.spd_factorize(np.array([[K11]])))
    assert np.allclose(Mbar, np.array([[0.0, 1.0], [1.0, -K11]]))


def test_bordered_inverse_guards_breakdown():
    with pytest.raises((SingularBorder, NotPositiveDefinite)):
        numerics.bordered_inverse(numerics.spd_factorize(np.zeros((3, 3))))


def test_import_pins_both_pools_over_the_environment():
    # each pool's start-up count is read before `import looise` pins it
    probe = (
        "import ctypes, glob, json, os, sys, numpy, scipy.linalg\n"
        "def pools():\n"
        "    for package, pattern, suffix in (('numpy', 'libscipy_openblas64_-*.so', '64_'),\n"
        "                                     ('scipy', 'libscipy_openblas-*.so', '')):\n"
        "        root = os.path.dirname(os.path.dirname(sys.modules[package].__file__))\n"
        "        path, = glob.glob(os.path.join(root, package + '.libs', pattern))\n"
        "        get = getattr(ctypes.CDLL(path), 'scipy_openblas_get_num_threads' + suffix)\n"
        "        yield package, path, get()\n"
        "before = list(pools())\n"
        "from looise import numerics\n"
        "print(json.dumps({'before': before, 'after': list(pools()),\n"
        "                  'pin': numerics.BLAS_PIN.as_dict()}))\n"
    )
    env = subprocess_env(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS=None)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    got = json.loads(out.stdout)
    assert [(package, count) for package, _, count in got["before"]] == [("numpy", 2), ("scipy", 2)]
    assert [(package, count) for package, _, count in got["after"]] == [("numpy", 1), ("scipy", 1)]
    assert got["pin"]["overridden"] == {"OPENBLAS_NUM_THREADS": "2"}
    for package, path, _ in got["before"]:  # the record names the pools that were read
        pool = got["pin"]["pools"][package]
        assert pool["library"] == path and pool["threads_after"] == 1
        assert pool["unpinned_reason"] is None


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc only")
def test_block_temporaries_reuse_heap_pages_in_a_fresh_process():
    # three support-block-sized temporaries freed together leave more than the
    # default trim threshold free at the heap top; unpinned, each round faults
    # in about 1,200 fresh pages
    probe = (
        "import resource, numpy as np\n"
        "from looise import numerics\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(100):\n"
        "    blocks = [np.ones((1024, 200)) for _ in range(3)]\n"
        "    del blocks\n"
        "print(numerics.MALLOC_PINNED, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    pinned, faults = out.stdout.split()
    assert pinned == "True"
    assert int(faults) < 20_000
