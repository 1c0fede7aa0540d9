"""Order-preserving map over the points of a sweep."""

from __future__ import annotations


def parallel_map(fn, items):
    """``[fn(item) for item in items]``.

    Serial: the mapped work is small, GIL-bound numpy calls, and a thread
    pool made it slower on two CPUs.  Its one caller is ``find_resonances``,
    which maps its golden-section peak searches through it; it is kept so
    that the benchmark tracer (``bench/tracer.py``) can time those searches
    as the ``runtime.parallel_map`` layer and nest their spans under it.
    """
    return [fn(item) for item in items]
