"""Dense symmetric-positive-definite linear algebra shared by all modules.

Everything here wraps LAPACK (through scipy) behind a small, strict
interface: factorizations are immutable, inputs are validated, and
near-singular matrices fail loudly after a bounded jitter escalation
instead of silently regularizing.

Importing this module pins the OpenBLAS thread pools bundled with numpy
and scipy to one thread each (:func:`pin_blas_threads`), for the whole
process. Otherwise each pool starts one thread per core, the two contend
for the cores, and the BLAS thread count changes the last bits of
results; with one thread each, results are the same for any
replication-pool size. What the pin did is kept in ``BLAS_PIN``.
Under glibc it also fixes malloc's mmap and trim thresholds
(:func:`pin_malloc_thresholds`), so that the page faults of a request do
not depend on what the process allocated before it.
Parallel work runs on Python threads instead, through :func:`map_ordered`.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import glob
import os
import sys
import threading
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg

from .errors import Asymmetric, DimensionMismatch, NotPositiveDefinite, SingularBorder

# Escalation ladder for the diagonal jitter, as multiples of mean(diag(A)).
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

SYMMETRY_RTOL = 1e-12

# The OpenBLAS builds bundled in the Linux numpy and scipy wheels: package, file
# pattern in <site-packages>/<package>.libs and suffix of the exported symbols.
BUNDLED_OPENBLAS = (
    ("numpy", "libscipy_openblas64_-*.so", "64_"),
    ("scipy", "libscipy_openblas-*.so", ""),
)

# Environment variables that set an OpenBLAS pool's thread count at load time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class BlasPool:
    """What pinning did to the OpenBLAS pool bundled with one package."""

    package: str
    library: str | None  # the shared library file; None when none was found
    threads_after: int | None
    unpinned_reason: str | None = None  # None when the pool runs one thread


@dataclass(frozen=True)
class BlasPin:
    """The process-wide BLAS thread policy as applied at import."""

    pools: tuple[BlasPool, ...]
    overridden: tuple[tuple[str, str], ...]  # thread variables the pin overrode

    def as_dict(self) -> dict:
        return {"pools": {p.package: asdict(p) for p in self.pools},
                "overridden": dict(self.overridden)}


def _find_openblas(package: str, pattern: str) -> str | None:
    """The OpenBLAS library bundled in `package`'s wheel, or None."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules[package].__file__)))
    found = sorted(glob.glob(os.path.join(root, package + ".libs", pattern)))
    return found[0] if found else None


def _pin_pool(package: str, pattern: str, suffix: str) -> BlasPool:
    path = _find_openblas(package, pattern)
    if path is None:
        return BlasPool(package, None, None, f"no bundled OpenBLAS in {package}")
    try:
        lib = ctypes.CDLL(path)  # already loaded by the package: same handle
        get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
    except (OSError, AttributeError) as exc:
        return BlasPool(package, path, None, f"cannot set threads: {exc}")
    put(1)
    after = int(get())
    return BlasPool(package, path, after,
                    None if after == 1 else f"pool reports {after} threads after the pin")


def pin_blas_threads() -> BlasPin:
    """Pin every bundled OpenBLAS pool to one thread; return what was done.

    A package without a bundled OpenBLAS (an MKL or system-BLAS build) is
    left alone, and its pool is recorded as unpinned with the reason.
    """
    pools = tuple(_pin_pool(*entry) for entry in BUNDLED_OPENBLAS)
    pinned = any(p.unpinned_reason is None for p in pools)
    overridden = tuple((k, os.environ[k]) for k in THREAD_VARS
                       if pinned and os.environ.get(k, "1").strip() != "1")
    return BlasPin(pools, overridden)


BLAS_PIN = pin_blas_threads()

# glibc's malloc takes a block below its mmap threshold from the heap, and returns
# the heap's free top to the kernel above its trim threshold (twice the first).
# By default the mmap threshold rises to the largest mmapped block freed so far,
# so whether the walk's per-block temporaries (BLOCK x n doubles, 1.6 MB at
# n = 200) reuse heap pages or fault in fresh ones depended on what the process
# had freed before: a table2 replication pair took 437k page faults in one
# process and 9k in another. Fixed thresholds make it the same in every process:
# 4 MiB lies above those temporaries up to n = 500, and the trim threshold is
# twice it, as glibc's own adjustment would set it.
MALLOC_MMAP_THRESHOLD = 4 << 20
MALLOC_TRIM_THRESHOLD = 8 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters in glibc's malloc.h


def pin_malloc_thresholds() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for the whole process;
    False, with nothing done, under any other C library."""
    try:
        glibc = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError):  # no confstr, or no such name here
        glibc = False
    if not glibc:
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD))


MALLOC_PINNED = pin_malloc_thresholds()

_POOL = threading.local()  # .worker is True on the threads map_ordered starts


def default_workers() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux; elsewhere every CPU counts
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_ordered(fn, items, workers: int | None = None) -> list:
    """[fn(item) for item in items], computed on a pool of threads.

    `workers` defaults to :func:`default_workers` and is capped at the number
    of items. The map runs inline when one worker remains and when it is
    called from a worker of a map_ordered pool, so nested maps never start
    more threads than the outer one. Results come back in input order.
    """
    items = list(items)
    workers = min(default_workers() if workers is None else workers, len(items))
    if workers <= 1 or getattr(_POOL, "worker", False):
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, initializer=lambda: setattr(_POOL, "worker", True)) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class SpdFactorization:
    """Lower-triangular Cholesky factor of a (possibly jittered) SPD matrix."""

    lower: np.ndarray
    jitter_applied: float
    _inverse: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return L @ L.T, the jittered input."""
        return self.lower @ self.lower.T


def spd_factorize(A: np.ndarray) -> SpdFactorization:
    """Cholesky-factorize a symmetric positive-definite matrix.

    The input is symmetrized by (A + A.T)/2 before factorization; matrices
    asymmetric beyond ``SYMMETRY_RTOL`` (relative to ||A||_F) are rejected.
    If plain Cholesky fails, a jitter of {1e-12, 1e-10, 1e-8} * mean(diag(A))
    is added to the diagonal, in that order, and the applied amount is
    recorded on the result.

    Raises
    ------
    NotPositiveDefinite
        If factorization still fails at the largest jitter level.
    Asymmetric
        If the input violates the symmetry tolerance.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    scale = np.linalg.norm(A)
    asym = np.linalg.norm(A - A.T)
    if scale > 0 and asym > SYMMETRY_RTOL * scale:
        raise Asymmetric(f"relative asymmetry {asym / scale:.3e} exceeds {SYMMETRY_RTOL:.0e}")
    A = 0.5 * (A + A.T)

    mean_diag = float(np.mean(np.diag(A))) if A.size else 0.0
    for level in JITTER_LADDER:
        jitter = level * abs(mean_diag)
        try:
            L = scipy.linalg.cholesky(
                A + jitter * np.eye(A.shape[0]) if jitter else A,
                lower=True,
                check_finite=False,
            )
        except scipy.linalg.LinAlgError:
            continue
        # a jittered success whose smallest pivot is explained by the jitter
        # itself means the input is genuinely singular, not rounding-indefinite
        if jitter and float(np.min(np.diag(L)) ** 2) <= 10.0 * jitter:
            continue
        return SpdFactorization(lower=L, jitter_applied=jitter)
    raise NotPositiveDefinite(
        f"matrix of size {A.shape[0]} is not positive definite after jitter escalation"
    )


def solve(F: SpdFactorization, B: np.ndarray) -> np.ndarray:
    """Solve A @ X = B given the factorization of A. B may be a vector or matrix."""
    B = np.asarray(B, dtype=float)
    if B.shape[0] != F.n:
        raise DimensionMismatch(f"rhs has leading dimension {B.shape[0]}, expected {F.n}")
    return scipy.linalg.cho_solve((F.lower, True), B, check_finite=False)


def inverse(F: SpdFactorization) -> np.ndarray:
    """Explicit inverse A^{-1}, solved once per factorization and cached on F.

    The kriging predictors need all of it: their LOO operator divides it by
    its diagonal, and their weights at a block of points are C A^{-1}, one
    matrix multiply where a triangular solve per point costs about four
    times as much. The result is read-only, since every caller shares it.
    Criteria that read only the diagonal use :func:`inverse_diagonal`.
    """
    if F._inverse is None:  # threads racing here store equal arrays; either is kept
        inv = solve(F, np.eye(F.n))
        inv.setflags(write=False)
        object.__setattr__(F, "_inverse", inv)
    return F._inverse


def inverse_diagonal(F: SpdFactorization) -> np.ndarray:
    """diag(A^{-1}) without forming A^{-1}.

    With A = L L^T, A^{-1} = L^{-T} L^{-1}, so (A^{-1})_jj is the sum of the
    squares of column j of L^{-1}; L^{-1} comes from LAPACK's triangular
    inverse (dtrtri), about a sixth of the flops of the full inverse.
    """
    Linv, info = scipy.linalg.lapack.dtrtri(F.lower, lower=1)
    if info != 0:
        raise NotPositiveDefinite("the Cholesky factor is singular")
    return np.einsum("ij,ij->j", Linv, Linv)


def rcond_estimate(F: SpdFactorization) -> float:
    """Cheap reciprocal-condition estimate of the factorized matrix
    (squared 1-norm estimate of the triangular factor)."""
    rc, info = scipy.linalg.lapack.dtrcon(F.lower, uplo=b"L")
    if info != 0:
        return 0.0
    return float(rc) ** 2


def bordered_inverse(F: SpdFactorization) -> np.ndarray:
    """Inverse of the (n+1)x(n+1) bordered matrix [[K, 1], [1^T, 0]].

    Computed by block inversion from the Cholesky factorization F of the
    SPD matrix K: with a = K^{-1} 1 and s = 1^T K^{-1} 1,

        inv = [[K^{-1} - a a^T / s,  a / s],
               [a^T / s,            -1 / s]].

    Raises
    ------
    SingularBorder
        If 1^T K^{-1} 1 is numerically zero (cannot occur for an exactly
        SPD K; guards against breakdown on nearly singular input).
    """
    n = F.n
    ones = np.ones(n)
    a = solve(F, ones)
    s = float(ones @ a)
    if not np.isfinite(s) or abs(s) < 1e-14:
        raise SingularBorder("1^T K^{-1} 1 is numerically zero")
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = inverse(F) - np.outer(a, a) / s
    out[:n, n] = a / s
    out[n, :n] = a / s
    out[n, n] = -1.0 / s
    return out
