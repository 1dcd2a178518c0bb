"""Span-based tracing for compiler passes and the simulator.

A :class:`Tracer` collects two kinds of observations:

* **spans** — nested, wall-clock timed intervals (one per compiler pass,
  one per pipeline, one per simulation), each carrying a structured
  attribute dict (IR deltas, achieved II vs. MinII, buffer footprints...);
* **instant events** — point observations with an explicit timestamp
  domain (the simulator stamps loop-buffer lifecycle events with its
  *cycle* count, so a rerun of the same cell stamps the same times).

Counts live on the spans: the ``simulate`` span carries the run's
per-loop loop-buffer counters (:func:`repro.pipeline.run_compiled`).

The disabled path is :data:`NULL_TRACER`, a singleton whose ``span`` hands
back one shared no-op context manager: call sites guard on
``tracer.enabled`` before doing *any* attribute computation, so tracing
off costs one attribute read per pass and zero allocations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed interval; ``ts_us``/``dur_us`` are µs since tracer epoch."""

    name: str
    category: str
    ts_us: float
    dur_us: float | None = None
    depth: int = 0
    attrs: dict = field(default_factory=dict)

    def annotate(self, **attrs) -> None:
        self.attrs.update(attrs)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.category,
            "ts": round(self.ts_us, 3),
            "dur": round(self.dur_us, 3) if self.dur_us is not None else 0.0,
            "depth": self.depth,
            "args": dict(self.attrs),
        }


@dataclass
class Instant:
    """A point event.  ``clock`` names the timestamp domain: ``"wall"``
    (µs since tracer epoch) or ``"cycles"`` (simulated machine cycles)."""

    name: str
    category: str
    ts: float
    clock: str = "wall"
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.category,
            "ts": round(self.ts, 3),
            "clock": self.clock,
            "args": dict(self.attrs),
        }


class _OpenSpan:
    """Context manager that opens a span on enter and times it on exit."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "span")

    def __init__(self, owner: "Tracer", name: str, category: str,
                 attrs: dict) -> None:
        self._tracer = owner
        self._name = name
        self._category = category
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = Span(self._name, self._category, tracer.now_us(),
                    depth=len(tracer._stack), attrs=self._attrs)
        tracer.spans.append(span)
        tracer._stack.append(span)
        self.span = span
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        span = tracer._stack.pop()
        span.dur_us = tracer.now_us() - span.ts_us
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        return False


class _NullSpan:
    """The shared do-nothing span: enter/exit/annotate are all free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracing: every operation is a no-op and allocates nothing.

    A single module-level instance (:data:`NULL_TRACER`) is shared by all
    disabled call sites; ``span`` always returns the same ``_NullSpan``.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, category: str = "pass", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "event",
                ts: float | None = None, clock: str = "wall",
                **attrs) -> None:
        pass

    def annotate(self, **attrs) -> None:
        pass

    def to_payload(self) -> dict:
        return {"spans": [], "events": []}


NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans and instants for one traced activity.

    ``clock`` is injectable for deterministic tests; timestamps are µs
    relative to the tracer's construction (its *epoch*), so serialized
    payloads always start near zero whatever the host clock reads.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._epoch = clock()
        self.spans: list[Span] = []
        self.events: list[Instant] = []
        self._stack: list[Span] = []

    # -- time ----------------------------------------------------------------

    def now_us(self) -> float:
        return (self._clock() - self._epoch) * 1e6

    # -- recording -----------------------------------------------------------

    def span(self, name: str, category: str = "pass", **attrs) -> _OpenSpan:
        """Open a nested span::

            with tracer.span("peel_short_loops", scope="main") as span:
                ...
                span.annotate(loops_peeled=2)
        """
        return _OpenSpan(self, name, category, attrs)

    def instant(self, name: str, category: str = "event",
                ts: float | None = None, clock: str = "wall",
                **attrs) -> None:
        """Record a point event; ``ts`` defaults to the wall clock, or pass
        an explicit value (e.g. a simulator cycle count) with its
        ``clock`` domain."""
        if ts is None:
            ts = self.now_us()
            clock = "wall"
        self.events.append(Instant(name, category, ts, clock, attrs))

    def annotate(self, **attrs) -> None:
        """Merge attributes into the innermost open span (no-op outside)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> dict:
        """Plain-dict (JSON- and pickle-able) form of everything recorded."""
        return {
            "spans": [span.as_dict() for span in self.spans],
            "events": [event.as_dict() for event in self.events],
        }
