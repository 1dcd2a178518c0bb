"""Continuous performance observability: one harness, one schema.

Every performance number this repo protects — the fast-engine speedup
(BENCH_sim.json), the tracing overhead (BENCH_obs.json), the service
(BENCH_serve.json) — used to be measured by a bespoke script with its
own JSON shape and no memory of previous runs.  This package unifies
them:

* :mod:`~repro.obs.perf.harness` — a :class:`BenchSpec` registry and one
  result schema (:class:`BenchResult`: repeated samples, median + MAD,
  per-phase sample series, environment fingerprint, git SHA, config
  hash);
* :mod:`~repro.obs.perf.benches` — the built-in specs the
  ``scripts/bench_*.py`` entry points are thin wrappers over;
* :mod:`~repro.obs.perf.history` — an append-only JSONL time series
  keyed by (bench name, config hash), seeded at ``BENCH_history.jsonl``;
* :mod:`~repro.obs.perf.regress` — a noise-aware regression detector
  (median + MAD thresholds, never a single noisy sample) with per-phase
  blame, plus a drift detector over the stored trajectory;
* :mod:`~repro.obs.perf.profile` — a span-accumulating profiler that
  folds pass spans, scheduler-phase seconds and simulator lifecycle
  events into a per-phase attribution report and a collapsed-stack
  (flamegraph-compatible) export.

The CLI front end is ``python -m repro.obs perf record|compare|trend``.
"""

from repro.obs.perf.harness import (
    BenchError,
    BenchResult,
    BenchSpec,
    RatioSpec,
    Sample,
    config_hash,
    env_fingerprint,
    fingerprint_key,
    mad,
    register,
    run_bench,
    run_suite,
)
from repro.obs.perf.history import History
from repro.obs.perf.profile import PhaseProfile
from repro.obs.perf.regress import Verdict, compare_result, trend

__all__ = [
    "BenchError",
    "BenchResult",
    "BenchSpec",
    "History",
    "PhaseProfile",
    "RatioSpec",
    "Sample",
    "Verdict",
    "compare_result",
    "config_hash",
    "env_fingerprint",
    "fingerprint_key",
    "mad",
    "register",
    "run_bench",
    "run_suite",
    "trend",
]
