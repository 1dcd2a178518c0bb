"""Wall-time, cache-traffic and per-stage timing accounting for runs.

A :class:`MetricsRecorder` is threaded through cell execution; each cell
contributes one :class:`CellMetrics` (which of its stages ran vs. hit the
cache, and how long each took).  Pool workers run in other processes, so
they return their ``CellMetrics`` alongside the result and the parent
merges them — the recorder itself never crosses a process boundary.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from repro.runner.cache import CacheStats
from repro.runner.summary import format_table

__all__ = ["CellMetrics", "MetricsRecorder", "format_table"]

#: latency percentiles reported in tables and JSON payloads
LATENCY_QUANTILES = (0.5, 0.95, 0.99)


@dataclass
class CellMetrics:
    """Timings for one (benchmark, pipeline, capacity) cell."""

    name: str
    pipeline: str
    capacity: int | None
    #: stage name -> seconds; stages: "compile", "retarget", "simulate"
    stages: dict[str, float] = field(default_factory=dict)
    base_cache_hit: bool = False
    run_cache_hit: bool = False
    #: a capacity class already computed in this process served the
    #: cell: no retarget, no simulation (DESIGN.md §5m)
    class_hit: bool = False
    attempts: int = 1
    #: parent-process re-executions after a worker timeout/death; a cell
    #: that needed one is a service-level flakiness signal even though
    #: its summary came back fine
    retries: int = 0
    worker: str = "serial"
    #: the cell's trace payload (tracing only; never serialized whole)
    trace: dict | None = None

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())

    def as_dict(self) -> dict:
        payload = {
            "name": self.name,
            "pipeline": self.pipeline,
            "capacity": self.capacity,
            "stages": {k: round(v, 6) for k, v in self.stages.items()},
            "seconds": round(self.seconds, 6),
            "base_cache_hit": self.base_cache_hit,
            "run_cache_hit": self.run_cache_hit,
            "class_hit": self.class_hit,
            "attempts": self.attempts,
            "retries": self.retries,
            "worker": self.worker,
        }
        if self.trace is not None:
            payload["traced"] = True
        return payload


class MetricsRecorder:
    """Collects cell metrics plus whole-run wall time and cache traffic."""

    def __init__(self) -> None:
        self.cells: list[CellMetrics] = []
        self.cache = CacheStats()
        self._t0 = time.perf_counter()
        self.wall_time_s = 0.0
        self.workers = 1

    def add_cell(self, cell: CellMetrics) -> None:
        self.cells.append(cell)

    def latency_quantiles(self) -> dict[str, dict[str, float]]:
        """{"compile"/"run": {"count", "p50", "p95", "p99"}} for every
        stage some cell did work in (cache-served cells contribute
        nothing): "compile" over base compiles, "run" over retarget +
        simulate.  Quantiles are nearest-rank: the smallest time with
        rank >= q * count."""
        times: dict[str, list[float]] = {"compile": [], "run": []}
        for cell in self.cells:
            stages = cell.stages
            if "compile" in stages:
                times["compile"].append(stages["compile"])
            if "retarget" in stages or "simulate" in stages:
                times["run"].append(stages.get("retarget", 0.0)
                                    + stages.get("simulate", 0.0))
        out: dict[str, dict[str, float]] = {}
        for stage, values in times.items():
            if not values:
                continue
            values.sort()
            entry = {"count": len(values)}
            for q in LATENCY_QUANTILES:
                rank = max(math.ceil(q * len(values)), 1)
                entry[f"p{int(q * 100)}"] = round(values[rank - 1], 6)
            out[stage] = entry
        return out

    def merge_cache_stats(self, stats: CacheStats) -> None:
        self.cache.hits += stats.hits
        self.cache.misses += stats.misses
        self.cache.stores += stats.stores
        self.cache.evictions += stats.evictions

    def finish(self) -> None:
        self.wall_time_s = time.perf_counter() - self._t0

    # -- reporting ---------------------------------------------------------

    @property
    def run_cache_hits(self) -> int:
        return sum(1 for c in self.cells if c.run_cache_hit)

    @property
    def class_hits(self) -> int:
        return sum(1 for c in self.cells if c.class_hit)

    def as_dict(self) -> dict:
        return {
            "wall_time_s": round(self.wall_time_s, 6),
            "workers": self.workers,
            "cells": [c.as_dict() for c in self.cells],
            "cache": self.cache.as_dict(),
            "cell_count": len(self.cells),
            "run_cache_hits": self.run_cache_hits,
            "class_hits": self.class_hits,
            "compute_seconds": round(sum(c.seconds for c in self.cells), 6),
            "latency": self.latency_quantiles(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_table(self) -> str:
        rows: list = [
            [
                f"{c.name}/{c.pipeline}",
                c.capacity if c.capacity is not None else "-",
                c.stages.get("compile", 0.0),
                c.stages.get("retarget", 0.0) + c.stages.get("simulate", 0.0),
                "hit" if c.run_cache_hit else
                ("base-hit" if c.base_cache_hit else "miss"),
                c.retries,
                c.worker,
            ]
            for c in self.cells
        ]
        if self.cells:
            rows.append("-")
            rows.append([
                f"total ({len(self.cells)} cells)",
                "",
                sum(c.stages.get("compile", 0.0) for c in self.cells),
                sum(c.stages.get("retarget", 0.0)
                    + c.stages.get("simulate", 0.0) for c in self.cells),
                f"{self.run_cache_hits} hit",
                sum(c.retries for c in self.cells),
                "",
            ])
        table = format_table(
            ["cell", "cap", "compile s", "run s", "cache", "retries",
             "worker"], rows,
            "per-cell runner metrics",
            align=["l", "r", "r", "r", "l", "r", "l"],
        )
        summary = (
            f"{len(self.cells)} cells in {self.wall_time_s:.2f}s wall "
            f"({self.workers} worker{'s' if self.workers != 1 else ''}); "
            f"cache: {self.cache.hits} hits / {self.cache.misses} misses / "
            f"{self.cache.evictions} evicted; "
            f"{self.class_hits} capacity-class hits"
        )
        quantiles = self.latency_quantiles()
        if quantiles:
            parts = []
            for stage, entry in quantiles.items():
                parts.append(
                    f"{stage} p50={entry['p50']:.3f} "
                    f"p95={entry['p95']:.3f} p99={entry['p99']:.3f}")
            summary += "\nstage latency s: " + "  |  ".join(parts)
        return table + "\n\n" + summary
