import tracemalloc

import numpy as np
import pytest

from oscilab.hermite import build_basis


@pytest.fixture(scope="session")
def basis64():
    return build_basis(1, 64, 256)


@pytest.fixture(scope="session")
def basis32():
    return build_basis(1, 32, 66)


@pytest.fixture(scope="session")
def basis16():
    return build_basis(1, 15, 34)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def traced_peak():
    """``traced_peak(fn, *args, **kwargs) -> (result, peak_bytes)``: fn's result and the tracemalloc peak of the call."""

    def trace(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return trace
