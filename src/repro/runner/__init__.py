"""Parallel, disk-cached experiment runner.

The figure/table harness in :mod:`repro.experiments` expresses every data
point as a *cell* — one ``(benchmark, pipeline, capacity)`` triple that is
compiled, retargeted at a buffer capacity, simulated and summarized.  This
package makes cells cheap and repeatable:

- :mod:`repro.runner.cache` — content-addressed on-disk artifact cache
  keyed by benchmark source + pipeline + compiler flags + package version.
  Compiled bases and run summaries persist across processes, so a sweep
  only ever compiles/simulates a configuration once per source change.
- :mod:`repro.runner.parallel` — cell execution and process-pool fan-out
  over a (benchmark × pipeline × capacity) grid: each cell runs once,
  the first failure fails the grid, results come back in input order.
- :mod:`repro.runner.metrics` — wall-time / cache-traffic / per-stage
  timing accounting, emitted as JSON or a human table.
- :mod:`repro.runner.cli` — ``python -m repro.runner`` front end.

Environment knobs (all optional):

``REPRO_CACHE_DIR``
    cache location (default ``.repro_cache`` under the current directory)
``REPRO_NO_CACHE``
    any value outside :data:`repro.FALSEY` (``0``, ``false``, ``no``,
    ``off``, empty) disables the on-disk cache entirely
``REPRO_WORKERS``
    default process-pool width (``0``/``1`` → serial in-process)
"""

from repro.runner.cache import ArtifactCache, CacheStats, cache_key, default_cache
from repro.runner.metrics import MetricsRecorder, format_table
from repro.runner.parallel import (
    Cell,
    compile_base,
    expand_grid,
    run_cell,
    run_grid,
)
from repro.runner.summary import RunSummary

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "Cell",
    "MetricsRecorder",
    "RunSummary",
    "cache_key",
    "compile_base",
    "default_cache",
    "expand_grid",
    "format_table",
    "run_cell",
    "run_grid",
]
