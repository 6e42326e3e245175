"""In-memory spans around the benchmark's calls into the package.

A span is (name, start, end, parent, request id); ``parent`` is the index
of the enclosing span in the same process, or None.  Spans are only
collected in memory and handed to the caller at the end of a run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, rid: int):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, rid)

    def call(self, name: str, rid: int, fn, *args):
        with self.span(name, rid):
            return fn(*args)


def untraced_call(name: str, rid: int, fn, *args):
    """Drop-in for :meth:`Tracer.call` with tracing off."""
    return fn(*args)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, rid in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, rid) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def self_time_by(spans: list[tuple], key) -> dict[str, float]:
    """Sum of self times grouped by ``key(name)``."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        k = key(span[0])
        totals[k] = totals.get(k, 0.0) + own
    return totals
