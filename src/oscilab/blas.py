"""The BLAS/LAPACK library that numpy's ``linalg`` loads, reached through ctypes.

numpy's wheels bundle scipy-openblas in ``numpy.libs`` beside the package,
with ILP64 (64-bit integer) interfaces and ``scipy_``-prefixed, ``64_``-suffixed
symbols.  ``hermite`` calls its ``dsterf``, which numpy does not expose, the
run manifest reads its thread count and the CLI pins that count to one.  The
handle is looked up on first use, not at import; where numpy ships no such
library (another platform or build) it is None and callers take their numpy
route.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager
from functools import cache

import numpy as np

__all__ = ["numpy_openblas", "openblas_function", "one_blas_thread", "blas_runtime"]


@cache
def numpy_openblas():
    """ctypes handle of the OpenBLAS in numpy's ``numpy.libs``, or None where there is none."""
    for lib in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))):
        try:
            return ctypes.CDLL(lib)
        except OSError:
            continue
    return None


def openblas_function(symbol: str, restype, *argtypes):
    """The function ``symbol`` of numpy's OpenBLAS with its ctypes signature set, or None where there is none."""
    fn = getattr(numpy_openblas(), symbol, None)
    if fn is not None:
        fn.restype, fn.argtypes = restype, argtypes
    return fn


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the count it found.

    The last bits of a BLAS-backed result may change with the thread count
    (reference ``smoothing``'s ``fractional_grad_eps0.25.fine`` does with
    two), so a run on one thread has bytes that depend on its manifest alone,
    whatever ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` says.  Where
    numpy's OpenBLAS has no thread setter it does nothing.
    """
    set_threads = openblas_function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    if set_threads is None:
        yield
        return
    found = openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(found)


def blas_runtime() -> dict:
    """numpy's BLAS and LAPACK as built (name, version) and the BLAS threads in force (None if unknown)."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    get_threads = openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return {
        **{kind: {key: deps.get(kind, {}).get(key) for key in ("name", "version")} for kind in ("blas", "lapack")},
        "blas_threads_in_force": get_threads() if get_threads is not None else None,
    }
