"""Host speed, measured while the benchmark measures the program.

The benchmark runs on a share of a machine whose speed drifts by up to a
third over minutes, and CPU time keeps pace with wall time while it does,
so the drift cannot be subtracted as stolen time.  A :class:`Gauge`
measures it instead: every ``PERIOD_S`` seconds a timer signal
interrupts the main thread, which times :func:`reference`, a fixed piece
of pure-Python work that uses only built-in types, so no change to the
program can move it.

A measured :class:`Interval` first drops the time the gauge itself took
inside it.  Its *slowness* is the mean reference time over the samples
taken inside it, divided by ``NOMINAL_S``, the reference time on an idle
host; the mean, not the median, because a host that takes the processor
away in slices slows the samples it hits by whole slices.  The scaled
time, raw seconds over slowness, is what the interval would have taken at
the nominal speed: it is the figure the benchmark reports.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: seconds between two reference samples
PERIOD_S = 0.1
#: :func:`reference` on an idle host, seconds
NOMINAL_S = 0.001
#: an interval with fewer samples inside borrows the nearest ones
MIN_SAMPLES = 5

_LOOPS = 4000


class _Cell:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int, offset: int) -> None:
        self.scale = scale
        self.offset = offset

    def step(self, value: int) -> int:
        return (self.scale * value + self.offset) & 0xFFFF


def reference() -> int:
    """The fixed work the gauge times: calls, attribute reads, small
    integer arithmetic, and list and dict traffic, as the program's
    interpreter-bound passes do."""
    cells = [_Cell(i + 1, i * 7) for i in range(16)]
    seen: dict[int, int] = {}
    value = 0
    for i in range(_LOOPS):
        value = cells[i & 15].step(value ^ i)
        seen[value & 255] = seen.get(value & 255, 0) + 1
    return value + len(seen)


@dataclass
class Interval:
    #: seconds measured, less the gauge's own time inside them
    raw_s: float = 0.0
    #: mean reference time inside the interval over ``NOMINAL_S``
    slowness: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.raw_s / self.slowness


class Gauge:
    """Samples :func:`reference` on a timer while started."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        #: (perf_counter at the sample's start, its reference seconds)
        self.samples: list[tuple[float, float]] = []
        #: seconds spent in the signal handler so far
        self.spent_s = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append((start, end - start))
        self.spent_s += time.perf_counter() - start

    def slowness(self, start: float, end: float) -> float:
        """Mean reference time over ``NOMINAL_S`` for ``[start, end]``;
        1.0 when the gauge has no samples at all."""
        inside = [cost for at, cost in self.samples if start <= at <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [cost for _at, cost in nearest[:MIN_SAMPLES]]
        if not inside:
            return 1.0
        return statistics.fmean(inside) / NOMINAL_S

    @contextmanager
    def interval(self):
        """Time the block as an :class:`Interval`."""
        result = Interval()
        spent = self.spent_s
        start = time.perf_counter()
        try:
            yield result
        finally:
            end = time.perf_counter()
            result.raw_s = end - start - (self.spent_s - spent)
            result.slowness = self.slowness(start, end)

    def __enter__(self) -> "Gauge":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
