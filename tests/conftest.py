"""Fixtures shared by the test modules."""
import tracemalloc

import pytest


def _peak_bytes(fn):
    """Call ``fn()`` under ``tracemalloc`` and return its result, the peak
    of traced memory during the call above what was traced before it, and
    what the call left traced (its result included)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        value = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak - base, held - base


@pytest.fixture
def peak_bytes():
    """The function ``peak_bytes(fn) -> (result, peak, held)``, in bytes."""
    return _peak_bytes
