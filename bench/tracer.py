"""Outside-in span tracer for the stepharm modules.

The tracer wraps every public function of each traced module, plus the
private quadrature rule ``contour._panel_rule`` whose node count is the
only record of the quadrature budget, at every name where the function is
bound.  Modules import names directly (``scattering.digamma`` is
``special.digamma``), so rebinding the defining module alone would miss
those calls.  Spans stay in memory until :meth:`Tracer.uninstall`; the
program itself is not modified on disk.

A span is ``(span_id, parent_id, name, start, end, points)``.  ``points``
is the size of the array argument that carries the work (the spectral
points of ``delta_prime``, the y points of ``f_epsilon``, the items of
``parallel_map``) or, for ``_panel_rule``, the number of nodes returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "stepharm"
TRACED_MODULES = ("special", "contour", "spectrum", "scattering", "wavepacket",
                  "runtime", "oracle", "verification", "cli")
EXTRA_FUNCTIONS = (("contour", "_panel_rule"),)

# argument position that carries the work, where it is not the first one
_POINTS_ARG = {"contour.f_epsilon": 1, "contour.f_epsilon_derivative": 1,
               "runtime.parallel_map": 1}


def _size(value) -> int:
    """Elements of an array or sequence argument; 1 for a scalar or an object."""
    return int(np.size(value)) if isinstance(value, (list, tuple, np.ndarray)) else 1


def targets():
    """(name, function) of every function the tracer wraps."""
    for short in TRACED_MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                yield f"{short}.{attr}", value
    for short, attr in EXTRA_FUNCTIONS:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        yield f"{short}.{attr}", getattr(module, attr)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        arg_index = _POINTS_ARG.get(name, 0)
        count_result = name == "contour._panel_rule"
        hands_off = name == "runtime.parallel_map"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            if hands_off:
                # worker threads start with an empty stack: give them this
                # span as parent so their spans nest under parallel_map
                args = (tracer._adopting(args[0], span_id),) + tuple(args[1:])
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if count_result:
                points = len(result[0])
            else:
                points = _size(args[arg_index]) if len(args) > arg_index else 1
            tracer.spans.append((span_id, parent, name, start, end, points))
            return result

        return wrapper

    def record(self, name: str, start: float, end: float) -> None:
        """Add a top-level span measured by the caller."""
        self.spans.append((next(self._ids), 0, name, start, end, 1))

    def _adopting(self, fn, parent_id: int):
        def adopted(item):
            stack = self._stack()
            if stack:
                return fn(item)
            stack.append(parent_id)
            try:
                return fn(item)
            finally:
                stack.pop()
        return adopted

    # -- installing --------------------------------------------------------
    def install(self) -> "Tracer":
        """Rebind every traced function in every stepharm module that holds it."""
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets()}
        holders = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{short}")
            for short in TRACED_MODULES]
        for module in holders:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                elif isinstance(value, list):
                    # tables of functions, e.g. verification._ALL_CHECKS
                    for i, item in enumerate(value):
                        wrapper = wrappers.get(id(item))
                        if wrapper is not None:
                            self._patches.append((value, i, item))
                            value[i] = wrapper
        return self

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, list):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one parent may overlap when they ran on worker threads, so
    their union, clipped to the parent's interval, is subtracted.
    """
    bounds = {sid: (start, end) for sid, _, _, start, end, _ in spans}
    children: dict[int, list] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent in bounds:
            children[parent].append((start, end))
    result = {}
    for sid, (start, end) in bounds.items():
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        result[sid] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return result


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per function name: calls, points and total self time in seconds."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "points": 0, "self_s": 0.0})
    for sid, _, name, _, _, points in spans:
        row = table[name]
        row["calls"] += 1
        row["points"] += points
        row["self_s"] += own[sid]
    return dict(table)


def merge(tables) -> dict[str, dict[str, float]]:
    """Sum per-function tables, e.g. one per CLI subprocess."""
    total: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "points": 0, "self_s": 0.0})
    for table in tables:
        for name, row in table.items():
            for key, value in row.items():
                total[name][key] += value
    return dict(total)


def save_spans(spans, path) -> None:
    """Write spans as columns to a compressed ``.npz`` file."""
    names = sorted({s[2] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    cols = list(zip(*spans)) if spans else [(), (), (), (), (), ()]
    np.savez_compressed(
        path, span_id=np.array(cols[0], dtype=np.int64),
        parent=np.array(cols[1], dtype=np.int64),
        name=np.array([index[n] for n in cols[2]], dtype=np.int32),
        start=np.array(cols[3], dtype=float), end=np.array(cols[4], dtype=float),
        points=np.array(cols[5], dtype=np.int64), names=np.array(names))


def load_spans(path) -> list[tuple]:
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        return [(int(a), int(b), names[c], float(d), float(e), int(f))
                for a, b, c, d, e, f in zip(data["span_id"], data["parent"],
                                            data["name"], data["start"],
                                            data["end"], data["points"])]
