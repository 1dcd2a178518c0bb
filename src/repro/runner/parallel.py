"""Cell execution and process-pool fan-out over experiment grids.

One *cell* is a ``(benchmark, pipeline, capacity)`` triple.  Executing it
means: obtain the capacity-independent compiled base (the process's
base memo, the disk cache or a compile), retarget it at the capacity
(:func:`repro.pipeline.with_buffer`), simulate, check the checksum
against the pure-Python oracle and summarize.  Capacities that place
the same loops at the same offsets form a *capacity class*, retargeted
and simulated once per process (:func:`run_base`, DESIGN.md §5m).

:func:`run_grid` runs the cells serially or over a
:class:`~concurrent.futures.ProcessPoolExecutor` with one task per
benchmark (see :func:`_base_tasks`).  A task runs its cells in one
worker just as the serial grid does, so each base is compiled once in
the worker that uses it and each capacity class is served from that
worker's memo.  Results always come back in input-cell order, whatever
the completion order.  Every cell is deterministic, so each runs once:
the first failure propagates with its own exception, and a worker that
dies fails the grid with
:class:`~concurrent.futures.process.BrokenProcessPool`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.bench import Benchmark, benchmark
from repro.bench.suite import parsed_module
from repro.loopbuffer.assign import AssignmentResult, place_loops
from repro.loopbuffer.overlay import check_retarget, loop_scan
from repro.memo import Memo
from repro.obs import Tracer, use as obs_use
from repro.pipeline import (
    COMPILERS as _COMPILERS,
    Compiled,
    RunConfig,
    check_buffered,
    run_compiled,
    with_buffer,
)
from repro.runner.cache import (
    ArtifactCache,
    CacheStats,
    cache_key,
    default_cache,
)
from repro.runner.metrics import CellMetrics, MetricsRecorder
from repro.runner.summary import RunSummary
from repro.sched.machine import DEFAULT_MACHINE

ENV_WORKERS = "REPRO_WORKERS"

PIPELINES = ("traditional", "aggressive")


@dataclass(frozen=True, order=True)
class Cell:
    """One grid point: a benchmark compiled one way, run at one capacity."""

    name: str
    pipeline: str
    capacity: int | None

    @property
    def group(self) -> tuple[str, str]:
        """The (benchmark, pipeline) pair sharing one compiled base."""
        return (self.name, self.pipeline)


@dataclass(frozen=True)
class Source:
    """An inline MKC program run as ``entry(*args)``: a Table 1
    :class:`~repro.bench.Benchmark` without an oracle checksum, wherever
    the runner takes a *program*.  ``name`` labels its run summaries."""

    name: str
    source: str
    entry: str = "main"
    args: tuple[int, ...] = ()

    def build(self):
        return parsed_module(self.source, "module")

    def expected(self) -> None:
        return None


#: what a base compiles from: a benchmark (or its name) or inline source
Program = Benchmark | Source | str


def _program(program: Program) -> Benchmark | Source:
    return benchmark(program) if isinstance(program, str) else program


def expand_grid(
    names: Iterable[str],
    pipelines: Iterable[str] = PIPELINES,
    capacities: Iterable[int | None] = (256,),
) -> list[Cell]:
    """Cartesian (pipeline × benchmark × capacity) grid, pipeline-major to
    match the historical serial sweep order."""
    return [
        Cell(name, pipeline, capacity)
        for pipeline in pipelines
        for name in names
        for capacity in capacities
    ]


def resolve_workers(workers: int | None = None) -> int:
    """``workers`` argument, else ``REPRO_WORKERS``, else the core count."""
    if workers is None:
        env = os.environ.get(ENV_WORKERS)
        if env:
            try:
                workers = int(env)
            except ValueError:
                workers = None
    if workers is None:
        workers = os.cpu_count() or 1
    return max(0, workers)


# --------------------------------------------------------------------------
# cache keys


def _machine_fingerprint(machine) -> str:
    slots = ";".join(
        ",".join(sorted(unit.name for unit in units))
        for units in machine.slot_units
    )
    return (f"slots[{slots}] bp={machine.branch_penalty} "
            f"ir={machine.int_registers} pr={machine.predicate_registers} "
            f"ob={machine.operation_bits}")


#: every base compiles for the default machine, and a
#: ``MachineDescription`` is frozen: its fingerprint is built once
_DEFAULT_MACHINE_FINGERPRINT = _machine_fingerprint(DEFAULT_MACHINE)


def _base_flags(program: Benchmark | Source, settings: RunConfig) -> dict:
    # the run settings are part of the key: a checked compile carries
    # different stats (and may raise), so it must never be served from —
    # or poison — the unchecked entry; and a step budget decides where
    # profiling and simulation trap
    return {
        "entry": program.entry,
        "args": list(program.args),
        "machine": _DEFAULT_MACHINE_FINGERPRINT,
        "buffer_capacity": None,
        **settings.key_flags(),
    }


def base_key(program: Program, pipeline: str,
             settings: RunConfig = RunConfig()) -> str:
    program = _program(program)
    return cache_key(program.source, pipeline, _base_flags(program, settings))


def run_key(program: Program, pipeline: str, capacity: int | None,
            settings: RunConfig = RunConfig()) -> str:
    program = _program(program)
    return cache_key(program.source, pipeline,
                     {**_base_flags(program, settings), "capacity": capacity})


# --------------------------------------------------------------------------
# single-cell execution (runs in the parent or in a pool worker)


def compile_base(name: str, pipeline: str,
                 cache: ArtifactCache | None = None,
                 checked: bool = False) -> Compiled:
    """Compiled-but-unassigned base for a (benchmark, pipeline) group."""
    compiled, _seconds, _how = _compile_base_timed(
        name, pipeline, cache, RunConfig(checked))
    return compiled


#: :func:`base_key` -> compiled base; a Figure 7 sweep, the facade's
#: figures and the service all share it
BASE_MEMO = Memo(32)


def _compile_base_timed(
    program: Program, pipeline: str, cache: ArtifactCache | None,
    settings: RunConfig = RunConfig(),
) -> tuple[Compiled, float, str]:
    """Returns ``(compiled, seconds, how)``, ``how`` naming where the
    base came from: ``"memo"`` (:data:`BASE_MEMO`), ``"cache"`` (the
    disk cache) or ``"compiled"``.  Only a compile records into the
    installed tracer."""
    if pipeline not in _COMPILERS:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    program = _program(program)
    key = base_key(program, pipeline, settings)
    compiled = BASE_MEMO.get(key)
    if compiled is not None:
        return compiled, 0.0, "memo"
    if cache is not None:
        compiled = cache.load(key, "base")
        if compiled is not None:
            BASE_MEMO.put(key, compiled)
            return compiled, 0.0, "cache"
    t0 = time.perf_counter()
    compiled = _COMPILERS[pipeline](
        program.build(), entry=program.entry, args=list(program.args),
        buffer_capacity=None, checked=settings.checked, **settings.budget())
    seconds = time.perf_counter() - t0
    if cache is not None:
        cache.store(key, "base", compiled)
    BASE_MEMO.put(key, compiled)
    return compiled, seconds, "compiled"


#: ``(base key, planned assignment, buffered)`` -> :class:`ClassRun`,
#: one entry per capacity class (see :func:`run_base`)
CLASS_MEMO = Memo(256)


@dataclass(frozen=True)
class ClassRun:
    """What every cell of one capacity class shares: the program's
    value, the simulator counters and the retargeted static op count."""

    value: int
    counters: object
    static_ops: int
    #: the retargeted artifact, kept in checked mode only, where a class
    #: hit re-runs the buffer-phase lint rules on it at its own capacity
    compiled: Compiled | None = None


def assignment_key(assignment: AssignmentResult | None) -> tuple:
    """The content of a buffer assignment: each placed loop's function,
    header, offset, length and counted flag, in placement order."""
    if assignment is None:
        return ()
    return tuple((a.func, a.header, a.offset, a.length, a.counted)
                 for a in assignment.assigned)


def _planned(base: Compiled, capacity: int | None) -> tuple:
    """:func:`assignment_key` of what ``with_buffer(base, capacity)``
    would install, placed from the base's one loop scan
    (:func:`~repro.loopbuffer.overlay.loop_scan`, which ``with_buffer``
    places from too) without touching IR."""
    if not capacity:
        return ()
    return assignment_key(place_loops(loop_scan(base), capacity))


def run_base(
    program: Program, pipeline: str, base: Compiled, capacity: int | None,
    settings: RunConfig = RunConfig(), metrics: CellMetrics | None = None,
) -> tuple[RunSummary, int]:
    """Retarget ``base`` at ``capacity``, simulate it and summarize the run.

    Returns ``(summary, value)``, ``value`` being what the program
    returned.  Raises :class:`AssertionError` when a benchmark's value
    misses its oracle checksum; pipeline and simulator errors
    (:class:`~repro.pipeline.CheckedModeError`, traps) propagate.
    ``metrics``, when given, receives the retarget and simulate seconds
    and whether a capacity class served the cell.

    Capacities that place the same loops at the same offsets form one
    *capacity class*: capacity reaches the simulator only through the
    loop buffer's bounds check, so every cell of a class has the same
    value, counters and static op count (DESIGN.md §5m).  Each class is
    retargeted and simulated once per process and kept in
    :data:`CLASS_MEMO`; the other cells build their summary from it
    with their own capacity, and the checksum is still checked per
    cell.  A traced run bypasses the memo, so each traced cell keeps
    its retarget and simulate spans.  In checked mode a class is
    checked in full when it is computed, and each later cell re-runs
    the buffer-phase lint rules at its own capacity.

    ``base`` must be the compile of ``program`` under ``pipeline`` and
    ``settings``: the class memo is keyed by :func:`base_key`, not by
    the object handed in, just as the run cache stores summaries under
    :func:`run_key` whichever base produced them.
    """
    program = _program(program)
    check_retarget(base, capacity)
    key = None
    run = None
    if not settings.trace:
        bkey = base_key(program, pipeline, settings)
        key = (bkey, _planned(base, capacity), bool(capacity))
        run = CLASS_MEMO.get(key)
    if run is not None:
        if metrics is not None:
            metrics.class_hit = True
        if settings.checked:
            check_buffered(replace(run.compiled, buffer_capacity=capacity),
                           base, phases=("buffer",))
    else:
        t0 = time.perf_counter()
        compiled = with_buffer(base, capacity)
        t1 = time.perf_counter()
        outcome = run_compiled(compiled, **settings.budget())
        if metrics is not None:
            metrics.stages["retarget"] = t1 - t0
            metrics.stages["simulate"] = time.perf_counter() - t1
        run = ClassRun(outcome.result.value, outcome.counters,
                       compiled.static_ops,
                       compiled if settings.checked else None)
        if key is not None:
            CLASS_MEMO.put(key, run)
    value = run.value
    expected = program.expected()
    if expected is not None and value != expected:
        raise AssertionError(
            f"{program.name}/{pipeline}@{capacity}: checksum "
            f"{value} != expected {expected}"
        )
    counters = run.counters
    summary = RunSummary(
        name=program.name,
        pipeline=pipeline,
        capacity=capacity,
        cycles=counters.cycles,
        bundles=counters.bundles,
        ops_issued=counters.ops_issued,
        ops_from_buffer=counters.ops_from_buffer,
        ops_from_memory=counters.ops_from_memory,
        static_ops=run.static_ops,
        branch_bubbles=counters.branch_bubbles,
    )
    return summary, value


def _execute_cell(
    cell: Cell,
    cache: ArtifactCache | None,
    settings: RunConfig = RunConfig(),
) -> tuple[RunSummary, CellMetrics]:
    """Run one cell end to end; raises AssertionError on checksum mismatch.

    The cell takes its group's base from :func:`_compile_base_timed`.
    With ``settings.trace`` on, the cell records what it computes — the
    base compile, unless :data:`BASE_MEMO` serves it, then the retarget
    and the simulation — onto ``CellMetrics.trace``, and reads and
    writes no disk cache.
    """
    cm = CellMetrics(cell.name, cell.pipeline, cell.capacity)
    program = benchmark(cell.name)
    if settings.trace:
        cache = None
    key = run_key(program, cell.pipeline, cell.capacity, settings)
    if cache is not None:
        cached = cache.load(key, "run")
        if isinstance(cached, RunSummary):
            cm.run_cache_hit = True
            return cached, cm

    compile_tracer = Tracer() if settings.trace else None
    with obs_use(compile_tracer) if settings.trace else nullcontext():
        base, seconds, how = _compile_base_timed(
            program, cell.pipeline, cache, settings)
    if how != "memo":
        cm.stages["compile"] = seconds
    cm.base_cache_hit = how != "compiled"

    run_tracer = Tracer() if settings.trace else None
    with obs_use(run_tracer) if settings.trace else nullcontext():
        summary, _value = run_base(program, cell.pipeline, base,
                                   cell.capacity, settings, cm)
    if settings.trace:
        cm.trace = {
            "name": cell.name,
            "pipeline": cell.pipeline,
            "capacity": cell.capacity,
            "compile": compile_tracer.to_payload(),
            "run": run_tracer.to_payload(),
        }
    if cache is not None:
        cache.store(key, "run", summary)
    return summary, cm


def run_cell(
    name: str,
    pipeline: str,
    capacity: int | None,
    cache: ArtifactCache | None = None,
    metrics: MetricsRecorder | None = None,
    checked: bool = False,
    trace: bool = False,
) -> RunSummary:
    """The single-cell entry point the experiments facade builds on."""
    summary, cm = _execute_cell(Cell(name, pipeline, capacity), cache,
                                RunConfig(checked, trace=trace))
    if metrics is not None:
        metrics.add_cell(cm)
        if cache is not None:
            metrics.merge_cache_stats(cache.stats)
            cache.stats = type(cache.stats)()
    return summary


# --------------------------------------------------------------------------
# the grid executor


def run_grid(
    cells: Sequence[Cell],
    workers: int | None = None,
    cache: ArtifactCache | None | str = "default",
    metrics: MetricsRecorder | None = None,
    checked: bool = False,
    trace: bool = False,
) -> list[RunSummary]:
    """Execute every cell once, returning summaries in input-cell order.

    ``workers`` ``<= 1`` (or a one-cell grid) runs serially in-process.
    Otherwise each pool task runs one benchmark's cells, or one
    (benchmark, pipeline) group's when there are fewer benchmarks than
    workers (see :func:`_base_tasks`), in one worker and in input order.
    A cell's failure fails the grid with the cell's own exception: a
    checksum mismatch (``AssertionError``), a
    :class:`~repro.pipeline.CheckedModeError` under ``checked``, a trap
    or a step limit.  A worker that dies raises
    :class:`~concurrent.futures.process.BrokenProcessPool`.  Nothing is
    retried: every cell is deterministic.
    ``trace`` records a span/event trace per cell onto its
    :class:`~repro.runner.metrics.CellMetrics` (see
    :mod:`repro.obs.export` for the exporters); a traced grid reads and
    writes no disk cache, so every cell runs.
    """
    if cache == "default":
        cache = default_cache()
    metrics = metrics if metrics is not None else MetricsRecorder()
    workers = resolve_workers(workers)
    metrics.workers = max(1, workers)
    cells = list(cells)
    settings = RunConfig(checked, trace=trace)

    try:
        if workers <= 1 or len(cells) <= 1:
            results = _run_serial(cells, cache, metrics, settings)
        else:
            results = _run_pool(cells, workers, cache, metrics, settings)
    finally:
        metrics.finish()
        if cache is not None:
            metrics.merge_cache_stats(cache.stats)
            cache.stats = type(cache.stats)()
    return results


def _run_serial(cells: Sequence[Cell], cache: ArtifactCache | None,
                metrics: MetricsRecorder,
                settings: RunConfig = RunConfig()) -> list[RunSummary]:
    results: list[RunSummary] = []
    for cell in cells:
        summary, cm = _execute_cell(cell, cache, settings)
        metrics.add_cell(cm)
        results.append(summary)
    return results


def _base_tasks(cells: Sequence[Cell],
                workers: int) -> list[tuple[str, list[str]]]:
    """The pool's tasks: a benchmark and the pipelines whose cells one
    task runs for it, each benchmark and pipeline in first-seen order.

    With at least ``workers`` benchmarks, one task per benchmark, so its
    pipelines share one worker's frontend memo (DESIGN.md §5e) and every
    worker still has a benchmark to run.  With fewer, one task per
    (benchmark, pipeline) group, so the pipelines compile side by side
    instead of one after the other.
    """
    groups = list(dict.fromkeys(cell.group for cell in cells))
    if len({name for name, _ in groups}) < workers:
        return [(name, [pipeline]) for name, pipeline in groups]
    tasks: dict[str, list[str]] = {}
    for name, pipeline in groups:
        tasks.setdefault(name, []).append(pipeline)
    return list(tasks.items())


def _worker_task(
    cells: Sequence[Cell], cache_dir: str, cache_enabled: bool,
    settings: RunConfig = RunConfig(),
) -> tuple[list[RunSummary], list[CellMetrics], CacheStats]:
    """Run one pool task's cells in order, in one worker (module-level,
    so it pickles under every start method).  Returns the cells'
    summaries and metrics, and the worker's cache stats; a cell's
    exception propagates to the parent through the future."""
    cache = ArtifactCache(cache_dir, enabled=cache_enabled)
    metrics = MetricsRecorder()
    summaries = _run_serial(cells, cache, metrics, settings)
    for cm in metrics.cells:
        cm.worker = f"pid{os.getpid()}"
    return summaries, metrics.cells, cache.stats


def _run_pool(cells: Sequence[Cell], workers: int,
              cache: ArtifactCache | None,
              metrics: MetricsRecorder,
              settings: RunConfig = RunConfig()) -> list[RunSummary]:
    cache_dir = str(cache.root) if cache is not None else ""
    cache_enabled = cache is not None and cache.enabled
    results: list = [None] * len(cells)
    recorded: list = [None] * len(cells)
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures = []
        for name, pipelines in _base_tasks(cells, workers):
            indices = [index for index, cell in enumerate(cells)
                       if cell.name == name and cell.pipeline in pipelines]
            futures.append((indices, pool.submit(
                _worker_task, [cells[index] for index in indices],
                cache_dir, cache_enabled, settings)))
        for indices, future in futures:
            summaries, cell_metrics, stats = future.result()
            metrics.merge_cache_stats(stats)
            for index, summary, cm in zip(indices, summaries, cell_metrics):
                results[index], recorded[index] = summary, cm
    finally:
        # a failed task drops the tasks not yet started; the running
        # ones finish before the failure reaches the caller
        pool.shutdown(cancel_futures=True)
    for cm in recorded:
        metrics.add_cell(cm)
    return results
