"""Continuous performance observability over perfbench's results.

``perfbench/run.py`` measures every workload end to end and layer by
layer; this package keeps the statistics that turn its result lines
into a gate and a trajectory:

* :mod:`~repro.obs.perf.results` — reads a results file (one tagged
  perfbench line per run) into ``<workload>/<metric>`` series, with each
  layer's seconds turned into its share of the traced wall time;
* :mod:`~repro.obs.perf.history` — an append-only JSONL time series
  keyed by (series name, config hash), seeded at ``BENCH_history.jsonl``;
* :mod:`~repro.obs.perf.regress` — a noise-aware regression detector
  (median + MAD thresholds, never a single noisy sample) that names the
  regressed layer, the absolute bounds, and a drift detector over the
  stored trajectory;
* :mod:`~repro.obs.perf.profile` — a span-accumulating profiler that
  folds pass spans, scheduler-phase seconds and simulator lifecycle
  events into a per-phase attribution report and a collapsed-stack
  (flamegraph-compatible) export.

The CLI front end is ``python -m repro.obs perf record|compare|trend``.
"""

from repro.obs.perf.history import History
from repro.obs.perf.profile import PhaseProfile
from repro.obs.perf.regress import Verdict, compare_result, trend
from repro.obs.perf.results import Series, collect, read_results

__all__ = [
    "History",
    "PhaseProfile",
    "Series",
    "Verdict",
    "collect",
    "compare_result",
    "read_results",
    "trend",
]
