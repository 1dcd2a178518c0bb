"""Latency percentiles and failure accounting for the benchmark.

A tail percentile is reported only where at least ``MIN_BEYOND`` samples
lie beyond it; :func:`tail_percentile` picks p95, or p90 where p95 would
leave fewer than that, and refuses a sample too small for either.
:class:`Tally` counts units (a cell, a program x config, a
request) as attempted and failed; a unit that was refused, timed out,
trapped or gave the wrong answer is failed, never dropped.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

MIN_BEYOND = 10

#: candidate tail percentiles, highest first; 95 is the target
LADDER = (95.0, 90.0)


def tail_percentile(count: int, min_beyond: int = MIN_BEYOND) -> float:
    """Highest ladder percentile with ``min_beyond`` samples above it;
    ``ValueError`` if even the lowest rung has fewer."""
    for pct in LADDER:
        if count * (1.0 - pct / 100.0) >= min_beyond - 1e-9:
            return pct
    raise ValueError(f"{count} samples resolve no tail percentile: "
                     f"p{LADDER[-1]:g} needs {min_beyond} beyond it")


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: response and verdict outcomes that count as a served unit
OK = "ok"


@dataclass
class Tally:
    """Attempted and failed units, with failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def add(self, outcome: str = OK) -> None:
        """Count one unit; any outcome other than ``"ok"`` is a failure
        (e.g. ``"overloaded"``, ``"timeout"``, ``"trap"``,
        ``"digest-mismatch"``, ``"error"``)."""
        self.attempted += 1
        if outcome != OK:
            self.failed += 1
            self.reasons[outcome] += 1

    def add_lost(self, count: int, reason: str) -> None:
        """Count ``count`` units that never produced an outcome (their
        batch raised) as attempted and failed."""
        self.attempted += count
        self.failed += count
        if count:
            self.reasons[reason] += count

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def pass_frac(self) -> float:
        return 1.0 - self.fail_frac
