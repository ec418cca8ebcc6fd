"""The BLAS/LAPACK library that numpy's ``linalg`` loads, reached through ctypes.

numpy's wheels bundle scipy-openblas in ``numpy.libs`` beside the package,
with ILP64 (64-bit integer) interfaces and ``scipy_``-prefixed, ``64_``-suffixed
symbols.  ``hermite`` calls its ``dsterf``, which numpy does not expose, and
the run manifest reads its thread count.  The handle is looked up on first
use, not at import; where numpy ships no such library (another platform or
build) it is None and callers take their numpy route.
"""

from __future__ import annotations

import ctypes
import glob
import os
from functools import cache

import numpy as np

__all__ = ["numpy_openblas", "blas_runtime"]


@cache
def numpy_openblas():
    """ctypes handle of the OpenBLAS in numpy's ``numpy.libs``, or None where there is none."""
    for lib in sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))):
        try:
            return ctypes.CDLL(lib)
        except OSError:
            continue
    return None


def blas_runtime() -> dict:
    """numpy's BLAS and LAPACK as built (name, version) and the BLAS threads in force (None if unknown)."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    get_threads = getattr(numpy_openblas(), "scipy_openblas_get_num_threads64_", None)
    if get_threads is not None:
        get_threads.restype, get_threads.argtypes = ctypes.c_int, ()
    return {
        **{kind: {key: deps.get(kind, {}).get(key) for key in ("name", "version")} for kind in ("blas", "lapack")},
        "blas_threads_in_force": get_threads() if get_threads is not None else None,
    }
