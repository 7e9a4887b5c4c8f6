import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from looise import numerics
from looise.designs import regular_grid, sobol_points
from looise.errors import Asymmetric, DimensionMismatch, NotPositiveDefinite, SingularBorder
from looise.kernels import FAMILIES, KernelSpec, kernel_matrix

needs_lapacke = pytest.mark.skipif(not isinstance(numerics.LAPACK, numerics.Lapacke),
                                   reason="this scipy bundles no OpenBLAS with LAPACKE")


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
    record = numerics.DesignKernel(kernel_matrix(KernelSpec("matern32", 8.0),
                                                 regular_grid(2, 5).points))
    solves = []
    potrs = numerics.LAPACK.potrs
    monkeypatch.setattr(numerics.LAPACK, "potrs",
                        lambda *args, **kw: solves.append(args) or potrs(*args, **kw))
    M = record.inverse
    assert record.inverse is M
    assert len(solves) == 1
    with pytest.raises(ValueError):
        M[0, 0] = 0.0


def test_threads_reading_a_fresh_record_get_equal_parts():
    # the walk's workers read a predictor's record at once
    K = kernel_matrix(KernelSpec("matern32", 8.0), regular_grid(2, 6).points)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            record = numerics.DesignKernel(K)
            parts = numerics.map_ordered(lambda _: (record.inverse, *record.trend), range(8), 8)
            for inv, a, s in parts:
                assert np.array_equal(inv, parts[0][0]) and np.array_equal(a, parts[0][1])
                assert s == parts[0][2]
    finally:
        sys.setswitchinterval(interval)


def test_inverse_diagonal_matches_the_explicit_inverse():
    K = kernel_matrix(KernelSpec("matern52", 6.0), regular_grid(2, 5).points)
    diag = numerics.inverse_diagonal(numerics.spd_factorize(K))
    assert np.allclose(diag, np.diag(np.linalg.inv(K)), rtol=1e-10, atol=0.0)


def test_solve_dimension_mismatch():
    F = numerics.spd_factorize(np.eye(3))
    with pytest.raises(DimensionMismatch):
        numerics.solve(F, np.ones(4))


def test_bordered_inverse_identity_2x2():
    Mbar = numerics.bordered_inverse(numerics.DesignKernel(np.eye(2)))
    assert np.isclose(Mbar[0, 0], 0.5)
    assert np.isclose(Mbar[1, 1], 0.5)
    Kbar = np.block([[np.eye(2), np.ones((2, 1))], [np.ones((1, 2)), np.zeros((1, 1))]])
    assert np.linalg.norm(Mbar @ Kbar - np.eye(3)) < 1e-9


def test_bordered_inverse_n1():
    K11 = 2.5
    Mbar = numerics.bordered_inverse(numerics.DesignKernel(np.array([[K11]])))
    assert np.allclose(Mbar, np.array([[0.0, 1.0], [1.0, -K11]]))


def test_bordered_inverse_guards_breakdown():
    with pytest.raises((SingularBorder, NotPositiveDefinite)):
        numerics.bordered_inverse(numerics.DesignKernel(np.zeros((3, 3))))


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
    # three (1024, 200) temporaries, the size of a walk's blocks at n = 200 before
    # blocks were sized by entries, freed together leave more than the default
    # trim threshold free at the heap top; unpinned, each round faults in about
    # 1,200 fresh pages
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


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc only")
def test_a_walk_at_n_400_reuses_heap_pages_in_a_fresh_process():
    # with 1024-row blocks each (1024, 400) temporary takes 3.3 MB, several of them
    # freed together pass the trim threshold, and the second request faulted in
    # about 12,700 pages at N = 4096 (7 on two workers and 0 on one with 256-row blocks)
    probe = (
        "import resource, numpy as np\n"
        "from looise.designs import sobol_design, sobol_measure\n"
        "from looise.estimators import ise_blp\n"
        "from looise.kernels import KernelSpec\n"
        "from looise.moments import build_bundle\n"
        "from looise.predictors import SimpleKriging\n"
        "design = sobol_design(4, 400, scramble_seed=7)\n"
        "measure = sobol_measure(4, 4096, scramble_seed=1)\n"
        "pred = SimpleKriging(KernelSpec('matern52', 5.0), design)\n"
        "eps = pred.loo_residuals(np.sin(3.0 * design.points).sum(axis=1))\n"
        "def request():\n"
        "    ise_blp(build_bundle(pred, KernelSpec('matern32', 10.0), measure), eps)\n"
        "request()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "request()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 2_000


@needs_lapacke
@pytest.mark.parametrize("family", FAMILIES)
def test_lapacke_calls_give_the_bits_of_scipy_linalg(family):
    import scipy.linalg

    gen = np.random.default_rng(7)
    for n, d in ((3, 1), (60, 2), (200, 4), (400, 3)):
        K = kernel_matrix(KernelSpec(family, 3.0 * n ** (1.0 / d), 1e-8), sobol_points(d, n, 5))
        F = numerics.spd_factorize(K)
        L = scipy.linalg.cholesky(K, lower=True, check_finite=False)
        assert F.jitter_applied == 0.0 and np.array_equal(F.lower, L)
        assert F.lower.flags.f_contiguous  # the layout scipy returns: F.lower @ z keeps its bits
        B = gen.standard_normal((n, 2))
        for rhs in (B[:, 0], B, np.eye(n)):
            got, want = numerics.solve(F, rhs), scipy.linalg.cho_solve((L, True), rhs,
                                                                        check_finite=False)
            assert np.array_equal(got, want) and got.flags.f_contiguous == want.flags.f_contiguous
        assert np.array_equal(numerics.LAPACK.trtri(F.lower)[0],
                              scipy.linalg.lapack.dtrtri(L, lower=1)[0])
        assert numerics.rcond_estimate(F) == scipy.linalg.lapack.dtrcon(L, uplo=b"L")[0] ** 2


@needs_lapacke
def test_both_lapack_sources_jitter_and_fail_alike(monkeypatch):
    # plain Cholesky meets a pivot of about -1e-10; 1e-12 of jitter lifts it past
    # the pivot test, because the first pivot amplifies the shift a thousandfold
    b = math.sqrt(1e-3 * (1.0 + 1e-10))
    rescued = np.array([[1e-3, b], [b, 1.0]])
    singular = np.ones((5, 5))
    F = numerics.spd_factorize(rescued)
    with pytest.raises(NotPositiveDefinite):
        numerics.spd_factorize(singular)
    monkeypatch.setattr(numerics, "LAPACK", numerics.ScipyLapack())
    G = numerics.spd_factorize(rescued)
    assert F.jitter_applied == G.jitter_applied > 0.0
    assert np.array_equal(F.lower, G.lower)
    with pytest.raises(NotPositiveDefinite):
        numerics.spd_factorize(singular)


def test_an_exactly_symmetric_input_skips_the_symmetry_check():
    A = kernel_matrix(KernelSpec("matern32", 4.0), regular_grid(2, 4).points)
    assert np.array_equal(A, A.T)
    F = numerics.spd_factorize(A)
    G = numerics.spd_factorize(0.5 * (A + A.T))  # the step it skips is the identity
    assert np.array_equal(F.lower, G.lower)


def test_a_factorized_record_keeps_no_matrix():
    K = kernel_matrix(KernelSpec("matern32", 8.0), regular_grid(2, 5).points)
    record = numerics.DesignKernel.factorized(K)
    full = numerics.DesignKernel(K)
    assert record.K is None
    assert np.array_equal(record.factor.lower, full.factor.lower)
    assert np.array_equal(record.inverse, full.inverse)
    assert all(np.array_equal(x, y) for x, y in zip(record.trend, full.trend))
    with pytest.raises(NotPositiveDefinite):
        numerics.DesignKernel.factorized(np.ones((4, 4)))
