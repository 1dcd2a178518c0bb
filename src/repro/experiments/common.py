"""Shared infrastructure for the table/figure regeneration harness.

This module is now a thin facade over :mod:`repro.runner`: compiled bases
come from the runner's process base memo, and run summaries from a
per-process table; both are backed by the runner's content-addressed
on-disk cache (shared across processes and invocations), and
grid-shaped experiments can prewarm many cells at once through the
process-pool executor via :func:`prewarm`.  The historical entry
points — ``compiled_base(name, pipeline)`` and
``run_at_capacity(name, pipeline, capacity)`` — keep their signatures and
semantics, so callers and tests are unaffected.  Every compile and run
under the facade uses one :class:`~repro.pipeline.RunConfig`, unchecked
unless :func:`reset` (or ``--checked`` through :func:`experiment_args`)
sets checked mode.
"""

from __future__ import annotations

import argparse

from repro.pipeline import Compiled, RunConfig
from repro.runner import metrics as _metrics_mod
from repro.runner.cache import ArtifactCache, default_cache
from repro.runner.parallel import (
    BASE_MEMO,
    compile_base,
    expand_grid,
    run_cell,
    run_grid,
)
from repro.runner.summary import RunSummary, format_table

__all__ = [
    "FIG7_SIZES",
    "HEADLINE_CAPACITY",
    "RunSummary",
    "compiled_base",
    "experiment_args",
    "format_table",
    "prewarm",
    "reset",
    "run_at_capacity",
    "runner_metrics",
]

#: buffer sizes swept in Figure 7 (operations)
FIG7_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048)

#: the headline configuration (Sections 1 and 7)
HEADLINE_CAPACITY = 256

#: process-wide runner state shared by every experiment module: the run
#: settings, the disk cache, the accounting and the run table (the
#: figures' results, unbounded).  Only :func:`reset` changes the
#: settings, and it clears the table, so the table never mixes modes.
_SETTINGS = RunConfig()
_CACHE: ArtifactCache | None = None
_METRICS = _metrics_mod.MetricsRecorder()
_RUN_MEMO: dict[tuple[str, str, int | None], RunSummary] = {}


def experiment_args(description: str | None = None,
                    argv: list[str] | None = None) -> argparse.Namespace:
    """Shared CLI for the figure-script ``main``s.

    ``--checked`` puts the facade in checked mode (:func:`reset`), so
    every compile under it (and in pool workers) runs the per-pass
    semantic sanitizer; see :mod:`repro.analysis.lint`.  Note checked
    compiles use distinct cache keys, so the first such run recompiles
    everything.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--checked", action="store_true",
                        help="run the semantic sanitizer after every "
                             "compiler pass")
    args = parser.parse_args(argv)
    reset(_CACHE, checked=args.checked)
    return args


def _cache() -> ArtifactCache:
    global _CACHE
    if _CACHE is None:
        _CACHE = default_cache()
    return _CACHE


def runner_metrics() -> _metrics_mod.MetricsRecorder:
    """Accumulated cache/wall-time accounting for this process's runs."""
    return _METRICS


def reset(cache: ArtifactCache | None = None, checked: bool = False) -> None:
    """Drop the run table and the runner's base memo, swap the disk cache
    (``None``: the default one) and set checked mode for every later
    compile and run under the facade."""
    global _CACHE, _METRICS, _SETTINGS
    _SETTINGS = RunConfig(checked)
    BASE_MEMO.clear()
    _RUN_MEMO.clear()
    _METRICS = _metrics_mod.MetricsRecorder()
    _CACHE = cache


def compiled_base(name: str, pipeline: str) -> Compiled:
    """Compile a benchmark once per pipeline, without buffer assignment
    (``with_buffer`` retargets it per capacity)."""
    return compile_base(name, pipeline, _cache(), _SETTINGS.checked)


def run_at_capacity(name: str, pipeline: str,
                    capacity: int | None) -> RunSummary:
    """Compile (cached), retarget at ``capacity``, simulate, summarize."""
    key = (name, pipeline, capacity)
    if key not in _RUN_MEMO:
        _RUN_MEMO[key] = run_cell(
            name, pipeline, capacity,
            cache=_cache(),
            metrics=_METRICS,
            checked=_SETTINGS.checked,
        )
    return _RUN_MEMO[key]


def prewarm(
    names,
    pipelines=("traditional", "aggressive"),
    capacities=(HEADLINE_CAPACITY,),
    workers: int | None = None,
) -> list[RunSummary]:
    """Fan a (benchmark × pipeline × capacity) grid out over the runner.

    Results land in the same memo ``run_at_capacity`` reads, so an
    experiment that prewarms its grid first gets every subsequent lookup
    for free — from the pool when cold, from disk when warm.  Cells
    already memoized are skipped.
    """
    cells = [
        cell for cell in expand_grid(names, pipelines, capacities)
        if (cell.name, cell.pipeline, cell.capacity) not in _RUN_MEMO
    ]
    if not cells:
        return []
    summaries = run_grid(cells, workers=workers, cache=_cache(),
                         metrics=_METRICS, checked=_SETTINGS.checked)
    for cell, summary in zip(cells, summaries):
        _RUN_MEMO[(cell.name, cell.pipeline, cell.capacity)] = summary
    return summaries
