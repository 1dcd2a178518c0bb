"""Record BENCH_serve.json: service saturation/load benchmarks.

Thin wrapper over the unified benchmark harness (:mod:`repro.obs.perf`).
The measurements live in :mod:`repro.serve.benches`: the serve grid
driven concurrently (8 client threads) at an in-process
:class:`~repro.serve.service.Service` with a fresh artifact cache —

* ``serve.cold`` / ``serve.warm`` — per-request p50 service-side wall
  seconds on the first pass vs. the repeated (fully cache-warm) pass,
  with p95/p99 recorded as phases;
* ``serve.speedup`` (headline) — cold/warm p50, budget >= 10x in both
  modes: the warm path must answer at least an order of magnitude
  faster than a cold compile+simulate;
* ``serve.hitrate`` — run-cache hit rate of the repeated workload,
  budget >= 0.9 (dimensionless, so it stays gated across machines);
* ``serve.throughput`` — warm requests/s under load (informational).

Cold, warm and loaded responses must carry byte-identical run summaries
(digest group ``serve``); any divergence aborts the benchmark (exit 2).

Usage:  PYTHONPATH=src python scripts/bench_serve.py [out.json]
            [--quick] [--samples N] [--history PATH]
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.perf.suite import run_suite_script  # noqa: E402

DESCRIPTION = (
    "Service load benchmark: the serve grid driven at an in-process "
    "Service (2 workers, fresh artifact cache, 8 concurrent clients).  "
    "serve.cold/serve.warm are p50 service-side request seconds on the "
    "first vs. repeated pass; serve.speedup is their ratio (>= 10x), "
    "serve.hitrate the repeat-pass run-cache hit rate (>= 0.9) and "
    "serve.throughput the warm requests/s.  Summaries verified "
    "byte-identical across temperatures (digest group 'serve').")


def main(argv):
    return run_suite_script(
        argv, suite="serve", headline="serve.speedup",
        description=DESCRIPTION, default_out=REPO / "BENCH_serve.json",
        extras=("serve.hitrate", "serve.throughput"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
