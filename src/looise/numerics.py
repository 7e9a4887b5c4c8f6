"""Dense symmetric-positive-definite linear algebra shared by all modules.

Everything here wraps four LAPACK routines (Cholesky factor and solve,
triangular inverse and condition estimate) behind a small, strict
interface: factorizations are immutable, inputs are validated, and
near-singular matrices fail loudly after a bounded jitter escalation
instead of silently regularizing. A :class:`DesignKernel` is the one
record of a kernel matrix on a design, for predictors and bundles alike.
The routines are those scipy.linalg calls, in the OpenBLAS that the scipy
wheel bundles, reached through their LAPACKE entry points by ctypes
(``LAPACK``), so each call gives scipy's bits and releases the GIL; a scipy
without that library gets them from ``scipy.linalg.lapack`` instead.

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
import functools
import glob
import os
import sys
import threading
from dataclasses import asdict, dataclass

import numpy as np
import scipy  # noqa: F401  (locates scipy.libs, whose OpenBLAS supplies LAPACK)

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
        lib = ctypes.CDLL(path)  # the package's handle when it loaded the library first
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

_COL_MAJOR = 102  # LAPACKE's matrix_layout for Fortran (column-major) storage


class Lapacke:
    """The LAPACK routines looise calls, through the LAPACKE entry points of a
    bundled OpenBLAS, called as scipy.linalg.lapack's wrappers call them:
    lower triangle, non-unit diagonal, inputs copied to Fortran order, and
    each returns (result, info)."""

    def __init__(self, path: str):
        lib = ctypes.CDLL(path)  # the handle the pin opened
        i, c, p, d = ctypes.c_int, ctypes.c_char, ctypes.c_void_p, ctypes.c_double
        self.source = path
        self._potrf = _entry(lib, "dpotrf", i, c, i, p, i)
        self._laset = _entry(lib, "dlaset", i, c, i, i, d, d, p, i)
        self._potrs = _entry(lib, "dpotrs", i, c, i, i, p, i, p, i)
        self._trtri = _entry(lib, "dtrtri", i, c, c, i, p, i)
        self._trcon = _entry(lib, "dtrcon", i, c, c, c, i, p, i, p)
        lib.scipy_LAPACKE_set_nancheck(0)  # scipy's wrappers do not scan for NaN either

    def potrf(self, A):
        L = np.array(A, dtype=float, order="F")
        n = len(L)
        info = self._potrf(_COL_MAJOR, b"L", n, L.ctypes.data, max(n, 1))
        if n > 1:  # zero the strict upper triangle, columns 1..n-1, as scipy's clean=1 does
            self._laset(_COL_MAJOR, b"U", n - 1, n - 1, 0.0, 0.0, L.ctypes.data + 8 * n, n)
        return L, info

    def potrs(self, L, B):
        L = np.asfortranarray(L)
        X = np.array(B, dtype=float, order="F")
        n = len(L)
        info = self._potrs(_COL_MAJOR, b"L", n, 1 if X.ndim == 1 else X.shape[1],
                           L.ctypes.data, max(n, 1), X.ctypes.data, max(n, 1))
        return X, info

    def trtri(self, L):
        inv = np.array(L, dtype=float, order="F")
        n = len(inv)
        return inv, self._trtri(_COL_MAJOR, b"L", b"N", n, inv.ctypes.data, max(n, 1))

    def trcon(self, L):
        L = np.asfortranarray(L)
        rcond = ctypes.c_double()
        n = len(L)
        info = self._trcon(_COL_MAJOR, b"1", b"L", b"N", n, L.ctypes.data, max(n, 1),
                           ctypes.byref(rcond))
        return rcond.value, info


class ScipyLapack:
    """The same routines from scipy.linalg.lapack, imported on first use only:
    scipy.linalg costs about half of the process's start-up and memory."""

    source = "scipy.linalg.lapack"

    @functools.cached_property
    def _lapack(self):
        import scipy.linalg.lapack

        return scipy.linalg.lapack

    def potrf(self, A):
        return self._lapack.dpotrf(A, lower=1)

    def potrs(self, L, B):
        return self._lapack.dpotrs(L, B, lower=1)

    def trtri(self, L):
        return self._lapack.dtrtri(L, lower=1)

    def trcon(self, L):
        return self._lapack.dtrcon(L, uplo=b"L")


def _entry(lib, name: str, *argtypes):
    fn = getattr(lib, "scipy_LAPACKE_" + name)
    fn.argtypes, fn.restype = argtypes, ctypes.c_int
    return fn


def load_lapack() -> Lapacke | ScipyLapack:
    """LAPACKE from the OpenBLAS bundled with scipy, the library scipy.linalg
    calls and the pin has set to one thread; scipy.linalg.lapack when the
    wheel bundles none (an MKL or Accelerate scipy) or it lacks the entries."""
    package, pattern, _ = BUNDLED_OPENBLAS[1]
    path = _find_openblas(package, pattern)
    if path is not None:
        try:
            return Lapacke(path)
        except (OSError, AttributeError):
            pass
    return ScipyLapack()


LAPACK = load_lapack()

# glibc's malloc takes a block below its mmap threshold from the heap, and returns
# the heap's free top to the kernel above its trim threshold (twice the first).
# By default the mmap threshold rises to the largest mmapped block freed so far,
# so whether the walk's per-block temporaries reuse heap pages or fault in fresh
# ones depended on what the process had freed before: a table2 replication pair
# took 437k page faults in one process and 9k in another. Fixed thresholds make
# it the same in every process. The walk sizes its blocks so that each (rows, n)
# temporary holds at most moments.BLOCK_ENTRIES doubles, 1 MiB, well below the
# 4 MiB mmap threshold for any n; the trim threshold is twice it, as glibc's own
# adjustment would set it, and a block's temporaries freed together stay below it.
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

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Return L @ L.T, the jittered input."""
        return self.lower @ self.lower.T


def spd_factorize(A: np.ndarray) -> SpdFactorization:
    """Cholesky-factorize a symmetric positive-definite matrix.

    An input that is not exactly symmetric is symmetrized by (A + A.T)/2
    before factorization, and rejected when asymmetric beyond
    ``SYMMETRY_RTOL`` (relative to ||A||_F); an exactly symmetric one, such
    as a kernel matrix, skips both steps, whose result it already is.
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
    if not np.array_equal(A, A.T):
        scale = np.linalg.norm(A)
        asym = np.linalg.norm(A - A.T)
        if scale > 0 and asym > SYMMETRY_RTOL * scale:
            raise Asymmetric(f"relative asymmetry {asym / scale:.3e} exceeds {SYMMETRY_RTOL:.0e}")
        A = 0.5 * (A + A.T)

    mean_diag = float(np.mean(np.diag(A))) if A.size else 0.0
    for level in JITTER_LADDER:
        jitter = level * abs(mean_diag)
        L, info = LAPACK.potrf(A + jitter * np.eye(A.shape[0]) if jitter else A)
        if info != 0:
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
    X, info = LAPACK.potrs(F.lower, B)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return X


def inverse(F: SpdFactorization) -> np.ndarray:
    """Explicit inverse A^{-1}, read-only since :attr:`DesignKernel.inverse`
    shares it. Criteria that read only its diagonal use :func:`inverse_diagonal`."""
    inv = solve(F, np.eye(F.n))
    inv.setflags(write=False)
    return inv


def inverse_diagonal(F: SpdFactorization) -> np.ndarray:
    """diag(A^{-1}) without forming A^{-1}.

    With A = L L^T, A^{-1} = L^{-T} L^{-1}, so (A^{-1})_jj is the sum of the
    squares of column j of L^{-1}; L^{-1} comes from LAPACK's triangular
    inverse (dtrtri), about a sixth of the flops of the full inverse.
    """
    Linv, info = LAPACK.trtri(F.lower)
    if info != 0:
        raise NotPositiveDefinite("the Cholesky factor is singular")
    return np.einsum("ij,ij->j", Linv, Linv)


def rcond_estimate(F: SpdFactorization) -> float:
    """Cheap reciprocal-condition estimate of the factorized matrix
    (squared 1-norm estimate of the triangular factor)."""
    rc, info = LAPACK.trcon(F.lower)
    if info != 0:
        return 0.0
    return float(rc) ** 2


def bordered_inverse(record: DesignKernel) -> np.ndarray:
    """Inverse of the (n+1)x(n+1) bordered matrix [[K, 1], [1^T, 0]].

    Computed by block inversion from the record of the SPD matrix K: with
    (a, s) = record.trend = (K^{-1} 1, 1^T K^{-1} 1),

        inv = [[K^{-1} - a a^T / s,  a / s],
               [a^T / s,            -1 / s]].

    Raises
    ------
    SingularBorder
        If 1^T K^{-1} 1 is numerically zero (cannot occur for an exactly
        SPD K; guards against breakdown on nearly singular input).
    """
    a, s = record.trend
    if not np.isfinite(s) or abs(s) < 1e-14:
        raise SingularBorder("1^T K^{-1} 1 is numerically zero")
    n = len(a)
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = record.inverse - np.outer(a, a) / s
    out[:n, n] = a / s
    out[n, :n] = a / s
    out[n, n] = -1.0 / s
    return out


@dataclass(eq=False)
class DesignKernel:
    """K, a kernel's matrix on one design, and, each built on first use, its
    Cholesky factor, its inverse (read-only) and the constant-mean BLUE pieces
    (a, s) = (K^{-1} 1, 1^T a). Kriging predictors hold theirs as `.record`,
    made by :meth:`factorized`, which keeps no K."""

    K: np.ndarray | None

    @classmethod
    def factorized(cls, K: np.ndarray) -> DesignKernel:
        """The record of K, factorized now, so that a singular K raises here,
        and holding no K: for holders that read only what the factor gives."""
        record = cls(K)
        record.factor
        record.K = None
        return record

    @functools.cached_property
    def factor(self) -> SpdFactorization:
        return spd_factorize(self.K)

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        return inverse(self.factor)

    @functools.cached_property
    def trend(self) -> tuple[np.ndarray, float]:
        ones = np.ones(self.factor.n)
        a = solve(self.factor, ones)
        return a, float(ones @ a)

