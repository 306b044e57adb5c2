"""Shared fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``peak(fn, *args)`` returns ``fn``'s result and the peak bytes traced while it ran.

    ``tracemalloc`` counts numpy's array buffers as well as Python objects.
    """
    def peak(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
