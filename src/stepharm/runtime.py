"""Order-preserving map over the points of a sweep."""

from __future__ import annotations


def parallel_map(fn, items):
    """``[fn(item) for item in items]``.

    Serial: the mapped work is small, GIL-bound numpy calls, and a thread
    pool made it slower on two CPUs.  The function stays as the one place
    where sweeps map over their points, which the benchmark tracer
    (``bench/tracer.py``) times as the ``runtime.parallel_map`` layer.
    """
    return [fn(item) for item in items]
