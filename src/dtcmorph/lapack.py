"""The three LAPACK routines the package needs, and the BLAS thread limit,
all from numpy's own OpenBLAS.

Every numpy wheel links numpy.linalg against an ILP64 OpenBLAS that carries
LAPACK, with symbols `scipy_<name>_64_` (the scipy-openblas wheels) or
`<name>_64_` (a plain ILP64 build). `ctypes.CDLL` on numpy's
`_umath_linalg` extension resolves them through the extension's own
dependencies, so no library file is searched for and no second BLAS is
loaded. Integers are 64-bit; every matrix is a Fortran-ordered complex128
array that the routine overwrites in place. The same handle gives OpenBLAS's
thread setter, which `one_blas_thread` holds at one thread. Where a symbol
is missing, importing this module raises ImportError. `environment` records
the host and these libraries for a run's manifest.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys

import numpy as np

_INT = ctypes.c_int64
# pointer arguments of each routine (INFO included), then the hidden lengths
# of its CHARACTER arguments, which gfortran passes by value at the end
_SIGNATURES = {
    "zgetrf": (6, 0),
    "zgetri": (7, 0),
    "zheevd": (13, 2),
}
# OpenBLAS's thread-count setter, which returns the previous count; even the
# scipy-openblas wheels export it without prefix or suffix
_THREAD_SETTER = "openblas_set_num_threads_local"
# OpenBLAS's text queries, by environment key; informational, so a library
# without them is recorded as None rather than refused
_BUILD_QUERIES = {"openblas_core": "get_corename", "openblas_config": "get_config"}


_LIBRARY = ctypes.CDLL(np.linalg._umath_linalg.__file__)


def _symbol(spellings: tuple):
    """The function of the first of `spellings` that the library exports, or None."""
    return next((getattr(_LIBRARY, s) for s in spellings if hasattr(_LIBRARY, s)), None)


def _bind() -> dict:
    """The routines by name, and OpenBLAS's thread setter as "set_threads"."""
    symbols = {name: (f"scipy_{name}_64_", f"{name}_64_") for name in _SIGNATURES}
    symbols["set_threads"] = (_THREAD_SETTER,)
    found = {name: _symbol(spellings) for name, spellings in symbols.items()}
    missing = [" or ".join(symbols[name]) for name, f in found.items() if f is None]
    if missing:
        raise ImportError(
            "numpy.linalg links no ILP64 OpenBLAS LAPACK; missing " + ", ".join(missing)
        )
    for name, (pointers, lengths) in _SIGNATURES.items():
        found[name].argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * lengths
        found[name].restype = None
    found["set_threads"].argtypes = [ctypes.c_int]
    found["set_threads"].restype = ctypes.c_int
    return found


_ROUTINES = _bind()


@contextlib.contextmanager
def one_blas_thread():
    """Hold OpenBLAS to one thread, restoring the old count on exit.

    Yields the count it replaced: the one the scope started with.

    LAPACK results depend on the number of BLAS threads. This OpenBLAS keeps
    one process-wide count, which even the "_local" setter changes, so the
    limit is set once around a whole command or sweep by the calling thread,
    never per cell by pool workers. Nested scopes are harmless: the inner
    one restores the outer one's count.
    """
    previous = _ROUTINES["set_threads"](1)
    try:
        yield previous
    finally:
        _ROUTINES["set_threads"](previous)


def library() -> str:
    """Name and version of the LAPACK numpy.linalg links, e.g. 'scipy-openblas 0.3.31.188.0'."""
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        return f"{lapack['name']} {lapack['version']}"
    except KeyError:  # a numpy build that records no LAPACK
        return "unknown"


def _openblas_build() -> dict:
    """OpenBLAS's core name (e.g. 'SkylakeX') and build string, None where not exported."""
    build = {}
    for key, query in _BUILD_QUERIES.items():
        symbol = _symbol((f"scipy_openblas_{query}64_", f"openblas_{query}64_"))
        if symbol is None:
            build[key] = None
            continue
        symbol.argtypes = []
        symbol.restype = ctypes.c_char_p
        build[key] = symbol().decode()
    return build


def environment(blas_threads_at_start: int) -> dict:
    """Versions, libraries and CPUs of this process, for a run's manifest.

    With DYNAMIC_ARCH (in the build string) OpenBLAS picks its kernels by
    CPU, so the core name says why two hosts may differ in the last digits.
    `blas_threads_at_start` is the count `one_blas_thread` replaced.
    """
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "lapack": library(),
        **_openblas_build(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(affinity) if affinity is not None else None,
        "blas_threads_at_start": blas_threads_at_start,
    }


def _ref(value: int):
    return ctypes.byref(_INT(value))


def _call(name: str, *args) -> int:
    """Call a routine with INFO appended; return INFO, ValueError for an illegal argument."""
    info = _INT()
    _ROUTINES[name](*args, ctypes.byref(info), *[1] * _SIGNATURES[name][1])
    if info.value < 0:
        raise ValueError(f"{name}: argument {-info.value} has an illegal value")
    return info.value


def _with_workspaces(name: str, head: tuple, dtypes: tuple) -> int:
    """Call a driver whose arguments are head, then (work, lwork) per dtype.

    A workspace query (every lwork -1) sizes the workspaces first, as scipy
    does, so LAPACK blocks the work the same way.
    """
    sizes = [np.empty(1, dtype=dtype) for dtype in dtypes]
    _call(name, *head, *[x for s in sizes for x in (s.ctypes.data, _ref(-1))])
    work = [np.empty(max(1, int(s[0].real)), dtype=s.dtype) for s in sizes]
    return _call(name, *head, *[x for w in work for x in (w.ctypes.data, _ref(len(w)))])


def _order(a: np.ndarray) -> int:
    """Order of `a`, checked to be a writeable square Fortran-ordered complex128 array."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.complex128 and a.ndim == 2
            and a.shape[0] == a.shape[1] >= 1 and a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("expected a writeable square Fortran-ordered complex128 array")
    return a.shape[0]


def invert(a: np.ndarray) -> bool:
    """Replace `a` by its inverse, from its LU factors (zgetrf, zgetri).

    False where `a` is exactly singular; its content is then undefined.
    """
    n = _order(a)
    pivots = np.empty(n, dtype=np.int64)
    if _call("zgetrf", _ref(n), _ref(n), a.ctypes.data, _ref(n), pivots.ctypes.data):
        return False
    head = (_ref(n), a.ctypes.data, _ref(n), pivots.ctypes.data)
    return _with_workspaces("zgetri", head, (np.complex128,)) == 0


def eigh(a: np.ndarray, vectors: bool) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian `a`, read from its lower triangle (zheevd).

    With `vectors`, `a` is overwritten by orthonormal eigenvectors as columns
    in the order of the eigenvalues; otherwise its content is destroyed.
    LinAlgError where the solver does not converge.
    """
    n = _order(a)
    values = np.empty(n)
    head = (b"V" if vectors else b"N", b"L", _ref(n), a.ctypes.data, _ref(n), values.ctypes.data)
    if _with_workspaces("zheevd", head, (np.complex128, np.float64, np.int64)):
        raise np.linalg.LinAlgError("zheevd did not converge")
    return values
