"""Order-preserving map over the points of a sweep."""

from __future__ import annotations


def parallel_map(fn, items):
    """``[fn(item) for item in items]``.

    Serial: the mapped work is small, GIL-bound numpy calls, and a thread
    pool made it slower on two CPUs.  Its one caller is ``find_resonances``,
    which maps its peak heights through it; it is kept only so that the
    benchmark tracer (``bench/tracer.py``) can time them as the
    ``runtime.parallel_map`` layer until the benchmark drops that layer.
    """
    return [fn(item) for item in items]
