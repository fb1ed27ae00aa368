"""Span recording around fdpctl's layer boundaries, for the traced run.

A ``Tracer`` replaces a function on the module attribute its caller looks
up at call time with a wrapper that records one span: name, start, end,
parent span and an optional work size (points for the pairwise CDF and
the bivariate normal kernel).  Spans are kept in flat arrays in memory and
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


def _points(args) -> int:
    """Number of broadcast (u, v) points in a call f(u, v, ...)."""
    return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._patched = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, sized: bool = False):
        """Return fn wrapped so that every call records a span called name."""
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack
        name_ix, parent, start, end, size = (
            self.name_ix, self.parent, self.start, self.end, self.size)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            size.append(_points(args) if sized else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def patch(self, module, attr: str, name: str, sized: bool = False):
        """Replace module.attr by its traced wrapper until ``restore``."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, sized))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """{span name: (calls, inclusive s, self s, size)} over all spans."""
        ids = np.frombuffer(self.name_ix, dtype=np.int32)
        if ids.size == 0:
            return {}
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        size = np.frombuffer(self.size, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        width = len(self.names)
        calls = np.bincount(ids, minlength=width)
        incl = np.bincount(ids, weights=dur, minlength=width)
        self_s = np.bincount(ids, weights=dur - child, minlength=width)
        points = np.bincount(ids, weights=size, minlength=width)
        return {name: (int(calls[i]), float(incl[i]), float(self_s[i]),
                       int(points[i]))
                for i, name in enumerate(self.names)}

    def parent_names(self) -> np.ndarray:
        """Name index of each span's parent, -1 for a root span."""
        ids = np.frombuffer(self.name_ix, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        out = np.full(ids.size, -1, dtype=np.int64)
        has_parent = parent >= 0
        out[has_parent] = ids[parent[has_parent]]
        return out

    def save(self, path: str):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_ix, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 size=np.frombuffer(self.size, dtype=np.int64))
