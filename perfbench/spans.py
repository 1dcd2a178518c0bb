"""In-memory span recording and self-time accounting for traced runs.

A span is one call into a layer: its layer and name, the unit of work it
belongs to (a cell, a program x config or a request, shared by every span
of that unit), the thread it ran on, its parent span on that thread, and
its start and end on two clocks -- wall time and the thread's own CPU
time.  Spans stay in memory until the run ends (:meth:`Recorder.dump`).

A layer's *self time* is its spans' durations minus the part covered by
their child spans.  On one thread the wall clock is used, so the rows sum
to the pass's wall time.  When spans come from several threads (the
service's worker and client threads share one interpreter lock) wall
durations overlap, so self time is taken on the thread CPU clock instead:
a thread blocked on the lock or on a future accrues none, and the rows
again sum to at most the wall time.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    layer: str
    name: str
    unit: str | None
    thread: int
    parent: int          # index of the enclosing span on this thread, -1 at top
    start: float
    end: float
    cpu_start: float
    cpu_end: float

    def duration(self, cpu: bool) -> float:
        if cpu:
            return self.cpu_end - self.cpu_start
        return self.end - self.start


class Recorder:
    """Collects spans and boundary counts from any number of threads."""

    def __init__(self, wall=time.perf_counter, cpu=time.thread_time) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._wall = wall
        self._cpu = cpu
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_unit(self) -> str | None:
        return getattr(self._local, "unit", None)

    def open(self, layer: str, name: str, unit: str | None = None) -> int:
        stack = self._stack()
        if unit is None:
            unit = self.current_unit()
        span = Span(layer, name, unit, threading.get_ident(),
                    stack[-1] if stack else -1,
                    self._wall(), 0.0, self._cpu(), 0.0)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.cpu_end = self._cpu()
        span.end = self._wall()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, layer: str, name: str, unit: str | None = None):
        index = self.open(layer, name, unit)
        try:
            yield index
        finally:
            self.close(index)

    @contextmanager
    def unit(self, unit: str):
        """Tag every span this thread opens inside the block with ``unit``."""
        previous = self.current_unit()
        self._local.unit = unit
        try:
            yield
        finally:
            self._local.unit = previous

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- accounting --------------------------------------------------------

    @property
    def multithreaded(self) -> bool:
        return len({span.thread for span in self.spans}) > 1

    def self_times(self, cpu: bool | None = None) -> list[float]:
        """Per-span duration minus the duration of its direct children."""
        if cpu is None:
            cpu = self.multithreaded
        own = [span.duration(cpu) for span in self.spans]
        for span, duration in zip(self.spans, list(own)):
            if span.parent >= 0:
                own[span.parent] -= duration
        return own

    def by_name(self, cpu: bool | None = None) -> dict[tuple[str, str], float]:
        """Self seconds per (layer, name)."""
        totals: dict[tuple[str, str], float] = {}
        for span, seconds in zip(self.spans, self.self_times(cpu)):
            key = (span.layer, span.name)
            totals[key] = totals.get(key, 0.0) + seconds
        return totals

    def by_layer(self, cpu: bool | None = None) -> dict[str, float]:
        """Self seconds per layer."""
        totals: dict[str, float] = {}
        for (layer, _name), seconds in self.by_name(cpu).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def outer(self, layer: str, name: str) -> list[Span]:
        """Spans of ``(layer, name)`` not nested inside another such span,
        so recursive or re-entrant calls count once."""
        chosen = []
        for span in self.spans:
            if (span.layer, span.name) != (layer, name):
                continue
            parent = span.parent
            while parent >= 0:
                up = self.spans[parent]
                if (up.layer, up.name) == (layer, name):
                    break
                parent = up.parent
            else:
                chosen.append(span)
        return chosen

    def inclusive(self, layer: str, name: str,
                  cpu: bool | None = None) -> float:
        if cpu is None:
            cpu = self.multithreaded
        return sum(span.duration(cpu) for span in self.outer(layer, name))

    def dump(self, path) -> None:
        """Write every span (one JSON list per span) and the counts."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["layer", "name", "unit", "thread", "parent",
                           "start", "end", "cpu_start", "cpu_end"],
                "spans": [[s.layer, s.name, s.unit, s.thread, s.parent,
                           s.start, s.end, s.cpu_start, s.cpu_end]
                          for s in self.spans],
                "counts": dict(self.counts),
            }, handle)
