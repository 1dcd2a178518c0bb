"""Cell execution and process-pool fan-out over experiment grids.

One *cell* is a ``(benchmark, pipeline, capacity)`` triple.  Executing it
means: obtain the capacity-independent compiled base (disk cache or
compile), retarget it at the capacity (:func:`repro.pipeline.with_buffer`),
simulate, check the checksum against the pure-Python oracle and summarize.

:func:`run_grid` maps a list of cells over a
:class:`~concurrent.futures.ProcessPoolExecutor` in two phases — first the
distinct compiled bases (each (benchmark, pipeline) group compiled
once, so a capacity sweep never compiles the same program twice), then
the per-cell retarget+simulate tasks.  Results always come back in
input-cell order, whatever the completion order; a cell that times out
or fails with anything other than a checksum mismatch is retried once in
the parent process before the failure is allowed to propagate.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from repro.bench import Benchmark, benchmark
from repro.obs import MetricsRegistry, Tracer, use as obs_use
from repro.pipeline import (
    COMPILERS as _COMPILERS,
    Compiled,
    checked_enabled,
    run_compiled,
    with_buffer,
)
from repro.runner.cache import ArtifactCache, cache_key, default_cache
from repro.runner.metrics import CellMetrics, MetricsRecorder
from repro.runner.summary import RunSummary
from repro.sim.engine import engine_choice

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
        from repro.frontend import compile_source

        return compile_source(self.source)

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


def _base_flags(program: Benchmark | Source, checked: bool = False,
                engine: str = "fast", max_steps: int | None = None) -> dict:
    from repro.sched.machine import DEFAULT_MACHINE

    # ``checked`` is part of the key: a checked compile carries different
    # stats (and may raise), so it must never be served from — or poison —
    # the unchecked cache entry.  ``engine`` is part of the key too: the
    # engines are verified equivalent, but a differential sweep (bench_sim,
    # the fuzz oracle) must never have one engine's artifacts satisfy the
    # other's cells.  A step budget decides where profiling and simulation
    # trap, so a non-default one is keyed as well.
    flags = {
        "entry": program.entry,
        "args": list(program.args),
        "machine": _machine_fingerprint(DEFAULT_MACHINE),
        "buffer_capacity": None,
        "checked": checked,
        "engine": engine,
    }
    if max_steps is not None:
        flags["max_steps"] = max_steps
    return flags


def base_key(program: Program, pipeline: str, checked: bool | None = None,
             engine: str | None = None, max_steps: int | None = None) -> str:
    program = _program(program)
    return cache_key(program.source, pipeline,
                     _base_flags(program, checked_enabled(checked),
                                 engine_choice(engine), max_steps))


def run_key(program: Program, pipeline: str, capacity: int | None,
            checked: bool | None = None, engine: str | None = None,
            max_steps: int | None = None) -> str:
    program = _program(program)
    flags = _base_flags(program, checked_enabled(checked),
                        engine_choice(engine), max_steps)
    flags["capacity"] = capacity
    return cache_key(program.source, pipeline, flags)


# --------------------------------------------------------------------------
# single-cell execution (runs in the parent or in a pool worker)


def compile_base(name: str, pipeline: str,
                 cache: ArtifactCache | None = None,
                 checked: bool | None = None,
                 engine: str | None = None) -> Compiled:
    """Compiled-but-unassigned base for a (benchmark, pipeline) group."""
    compiled, _seconds, _hit, _trace = _compile_base_timed(
        name, pipeline, cache, checked_enabled(checked),
        engine=engine_choice(engine))
    return compiled


def _compile_base_timed(
    program: Program, pipeline: str, cache: ArtifactCache | None,
    checked: bool = False, trace: bool = False, engine: str = "fast",
    max_steps: int | None = None,
) -> tuple[Compiled, float, bool, dict | None]:
    """Returns ``(compiled, seconds, cache_hit, trace_payload)``.

    With ``trace`` on, a cache hit replays the trace stored beside the
    base artifact; a hit with no stored trace recompiles (deterministic,
    so the base is unchanged) to record one.
    """
    if pipeline not in _COMPILERS:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    program = _program(program)
    key = base_key(program, pipeline, checked, engine, max_steps)
    if cache is not None:
        cached = cache.load(key, "base")
        if cached is not None:
            if not trace:
                return cached, 0.0, True, None
            payload = cache.load(key, "trace")
            if payload is not None:
                return cached, 0.0, True, payload
    budget = {} if max_steps is None else {"max_steps": max_steps}
    tracer = Tracer() if trace else None
    t0 = time.perf_counter()
    with obs_use(tracer) if trace else nullcontext():
        compiled = _COMPILERS[pipeline](
            program.build(), entry=program.entry, args=list(program.args),
            buffer_capacity=None, checked=checked, engine=engine, **budget)
    seconds = time.perf_counter() - t0
    payload = tracer.to_payload() if trace else None
    if cache is not None:
        cache.store(key, "base", compiled)
        if trace:
            cache.store(key, "trace", payload)
    return compiled, seconds, False, payload


def run_base(
    program: Program, pipeline: str, base: Compiled, capacity: int | None,
    checked: bool = False, engine: str = "fast",
    max_steps: int | None = None, stages: dict | None = None,
) -> tuple[RunSummary, int]:
    """Retarget ``base`` at ``capacity``, simulate it and summarize the run.

    Returns ``(summary, value)``, ``value`` being what the program
    returned.  Raises :class:`AssertionError` when a benchmark's value
    misses its oracle checksum; pipeline and simulator errors
    (:class:`~repro.pipeline.CheckedModeError`, traps) propagate.
    ``stages``, when given, receives the retarget and simulate seconds.
    """
    program = _program(program)
    budget = {} if max_steps is None else {"max_steps": max_steps}
    t0 = time.perf_counter()
    compiled = with_buffer(base, capacity, checked=checked)
    t1 = time.perf_counter()
    outcome = run_compiled(compiled, engine=engine, **budget)
    if stages is not None:
        stages["retarget"] = t1 - t0
        stages["simulate"] = time.perf_counter() - t1
    value = outcome.result.value
    expected = program.expected()
    if expected is not None and value != expected:
        raise AssertionError(
            f"{program.name}/{pipeline}@{capacity}: checksum "
            f"{value} != expected {expected}"
        )
    counters = outcome.counters
    summary = RunSummary(
        name=program.name,
        pipeline=pipeline,
        capacity=capacity,
        cycles=counters.cycles,
        bundles=counters.bundles,
        ops_issued=counters.ops_issued,
        ops_from_buffer=counters.ops_from_buffer,
        ops_from_memory=counters.ops_from_memory,
        static_ops=compiled.static_ops,
        branch_bubbles=counters.branch_bubbles,
    )
    return summary, value


def _execute_cell(
    cell: Cell,
    cache: ArtifactCache | None,
    base: Compiled | None = None,
    checked: bool = False,
    trace: bool = False,
    engine: str = "fast",
) -> tuple[RunSummary, CellMetrics, Compiled | None]:
    """Run one cell end to end; raises AssertionError on checksum mismatch.

    Returns the compiled base actually used (``None`` on a run-cache hit)
    so callers sweeping several capacities can reuse it.  With ``trace``
    on, the cell's trace payload rides on ``CellMetrics.trace``; a warm
    cell replays the trace stored beside its run summary, and a warm cell
    without one falls through to re-simulate (summaries are deterministic,
    so the stored one stays valid).
    """
    cm = CellMetrics(cell.name, cell.pipeline, cell.capacity)
    program = benchmark(cell.name)
    key = run_key(program, cell.pipeline, cell.capacity, checked, engine)
    if cache is not None:
        cached = cache.load(key, "run")
        if isinstance(cached, RunSummary):
            if not trace:
                cm.run_cache_hit = True
                return cached, cm, None
            stored = cache.load(key, "trace")
            if stored is not None:
                cm.run_cache_hit = True
                cm.trace = _cell_trace(cell, None, stored, replayed=True)
                cm.obs = _fold_obs(None, stored)
                return cached, cm, None

    compile_payload = None
    if base is None:
        base, seconds, hit, compile_payload = _compile_base_timed(
            program, cell.pipeline, cache, checked, trace, engine)
        cm.stages["compile"] = seconds
        cm.base_cache_hit = hit
    else:
        cm.base_cache_hit = True

    tracer = Tracer() if trace else None
    with obs_use(tracer) if trace else nullcontext():
        summary, _value = run_base(program, cell.pipeline, base,
                                   cell.capacity, checked, engine,
                                   stages=cm.stages)
    if trace:
        run_payload = tracer.to_payload()
        cm.trace = _cell_trace(cell, compile_payload, run_payload,
                               replayed=False)
        cm.obs = _fold_obs(compile_payload, run_payload)
    if cache is not None:
        cache.store(key, "run", summary)
        if trace:
            cache.store(key, "trace", run_payload)
    return summary, cm, base


def _cell_trace(cell: Cell, compile_payload: dict | None,
                run_payload: dict | None, replayed: bool) -> dict:
    return {
        "name": cell.name,
        "pipeline": cell.pipeline,
        "capacity": cell.capacity,
        "compile": compile_payload,
        "run": run_payload,
        "replayed": replayed,
    }


def _fold_obs(compile_payload: dict | None,
              run_payload: dict | None) -> dict | None:
    """Merge the tracer metrics snapshots of a cell's phases into one."""
    registry = MetricsRegistry()
    for payload in (compile_payload, run_payload):
        if payload and payload.get("metrics"):
            registry.merge_snapshot(payload["metrics"])
    return registry.snapshot() if len(registry) else None


def run_cell(
    name: str,
    pipeline: str,
    capacity: int | None,
    cache: ArtifactCache | None = None,
    base: Compiled | None = None,
    metrics: MetricsRecorder | None = None,
    checked: bool | None = None,
    trace: bool = False,
    engine: str | None = None,
) -> RunSummary:
    """The single-cell entry point the experiments facade builds on."""
    summary, cm, _ = _execute_cell(Cell(name, pipeline, capacity), cache, base,
                                   checked_enabled(checked), trace,
                                   engine_choice(engine))
    if metrics is not None:
        metrics.add_cell(cm)
        if cache is not None:
            metrics.merge_cache_stats(cache.stats)
            cache.stats = type(cache.stats)()
    return summary


# --------------------------------------------------------------------------
# pool workers (module-level so they pickle under every start method)


def _worker_bases(name: str, pipelines: Sequence[str], cache_dir: str,
                  cache_enabled: bool, checked: bool = False,
                  trace: bool = False, engine: str = "fast") -> bytes:
    """Compile one benchmark's bases in order, in one worker, so the
    later pipelines reuse the first one's frontend from the worker's
    memo.  A compile failing with anything but a checksum mismatch is
    returned as ``None``, for the parent to retry."""
    cache = ArtifactCache(cache_dir, enabled=cache_enabled)
    bases = []
    for pipeline in pipelines:
        try:
            bases.append(_compile_base_timed(name, pipeline, cache, checked,
                                             trace, engine))
        except AssertionError:
            raise
        except Exception:
            bases.append(None)
    return pickle.dumps((bases, cache.stats))


def _worker_cell(cell: Cell, base_blob: bytes | None, cache_dir: str,
                 cache_enabled: bool, checked: bool = False,
                 trace: bool = False, engine: str = "fast") -> bytes:
    cache = ArtifactCache(cache_dir, enabled=cache_enabled)
    base = pickle.loads(base_blob) if base_blob is not None else None
    summary, cm, _ = _execute_cell(cell, cache, base, checked, trace, engine)
    cm.worker = f"pid{os.getpid()}"
    return pickle.dumps((summary, cm, cache.stats))


# --------------------------------------------------------------------------
# the grid executor


def run_grid(
    cells: Sequence[Cell],
    workers: int | None = None,
    timeout: float | None = None,
    cache: ArtifactCache | None | str = "default",
    metrics: MetricsRecorder | None = None,
    checked: bool | None = None,
    trace: bool = False,
    engine: str | None = None,
) -> list[RunSummary]:
    """Execute every cell, returning summaries in input-cell order.

    ``workers`` ``<= 1`` (or a one-cell grid) runs serially in-process.
    Otherwise compiled bases fan out first (see :func:`_base_tasks`),
    then the per-cell simulations.  ``timeout`` is per compile and per
    cell: a task has ``timeout`` seconds for each of them to produce its
    result once collection reaches it.
    Timeouts and transient errors are retried once in the parent; checksum
    mismatches (``AssertionError``) fail immediately — they are
    deterministic.  ``checked`` turns on the pipeline's checked mode (a
    :class:`~repro.pipeline.CheckedModeError` is deterministic and not
    retried — it propagates from the first attempt's retry like any
    compile error would, so keep grids small when debugging with it).
    ``trace`` records a span/event trace per cell onto its
    :class:`~repro.runner.metrics.CellMetrics` (see
    :mod:`repro.obs.export` for the exporters).  ``engine`` selects the
    simulator engine (``"ref"``/``"fast"``, default per ``REPRO_ENGINE``);
    it is part of every cache key, so sweeping both engines against one
    cache directory keeps their artifacts separate.
    """
    if cache == "default":
        cache = default_cache()
    metrics = metrics if metrics is not None else MetricsRecorder()
    workers = resolve_workers(workers)
    metrics.workers = max(1, workers)
    cells = list(cells)
    checked = checked_enabled(checked)
    engine = engine_choice(engine)

    try:
        if workers <= 1 or len(cells) <= 1:
            results = _run_serial(cells, cache, metrics, checked=checked,
                                  trace=trace, engine=engine)
        else:
            results = _run_pool(cells, workers, timeout, cache, metrics,
                                checked, trace, engine)
    finally:
        metrics.finish()
        if cache is not None:
            metrics.merge_cache_stats(cache.stats)
            cache.stats = type(cache.stats)()
    return results


def _run_serial(cells: Sequence[Cell], cache: ArtifactCache | None,
                metrics: MetricsRecorder,
                _execute=None, checked: bool = False,
                trace: bool = False,
                engine: str = "fast") -> list[RunSummary]:
    execute = _execute or partial(_execute_cell, trace=trace, engine=engine)
    bases: dict[tuple[str, str], Compiled] = {}
    results: list[RunSummary] = []
    for cell in cells:
        base = bases.get(cell.group)
        try:
            summary, cm, used = execute(cell, cache, base, checked)
        except AssertionError:
            raise
        except Exception:
            summary, cm, used = execute(cell, cache, base, checked)  # retry
            cm.attempts = 2
            cm.retries = 1
        metrics.add_cell(cm)
        results.append(summary)
        if used is not None:
            bases.setdefault(cell.group, used)
    return results


def _base_tasks(cells: Sequence[Cell],
                workers: int) -> list[tuple[str, list[str]]]:
    """Phase 1's tasks: a benchmark and the pipelines one task compiles
    for it, in order, each benchmark and pipeline in first-seen order.

    With at least ``workers`` benchmarks, one task per benchmark, so its
    pipelines share one worker's frontend memo (DESIGN.md §5e) and every
    worker still has a benchmark to compile.  With fewer, one task per
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


def _run_pool(cells: Sequence[Cell], workers: int, timeout: float | None,
              cache: ArtifactCache | None,
              metrics: MetricsRecorder,
              checked: bool = False,
              trace: bool = False,
              engine: str = "fast") -> list[RunSummary]:
    cache_dir = str(cache.root) if cache is not None else ""
    cache_enabled = cache is not None and cache.enabled
    results: list[RunSummary | None] = [None] * len(cells)
    # every pool cell receives its group's base, so compile spans are
    # recorded once per group here and attached to its first traced cell
    base_traces: dict[tuple[str, str], dict | None] = {}
    attached_groups: set[tuple[str, str]] = set()

    def _attach_base_trace(cell: Cell, cm: CellMetrics) -> None:
        if cm.trace is not None and cell.group not in attached_groups:
            attached_groups.add(cell.group)
            cm.trace["compile"] = base_traces.get(cell.group)

    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        # phase 1: compile every distinct (benchmark, pipeline) group
        tasks = _base_tasks(cells, workers)
        base_futures = [
            (name, pipelines,
             pool.submit(_worker_bases, name, pipelines, cache_dir,
                         cache_enabled, checked, trace, engine))
            for name, pipelines in tasks
        ]
        base_blobs: dict[tuple[str, str], bytes] = {}
        for name, pipelines, future in base_futures:
            budget = None if timeout is None else timeout * len(pipelines)
            try:
                bases, stats = pickle.loads(future.result(timeout=budget))
            except AssertionError:
                raise
            except Exception:
                # timeout / worker death: nothing came back; the
                # parent's retries hit the cache for any base it stored
                bases, stats = [None] * len(pipelines), None
            for pipeline, base in zip(pipelines, bases):
                if base is None:
                    # retry in the parent what the worker did not return
                    base = _compile_base_timed(name, pipeline, cache,
                                               checked, trace, engine)
                compiled, _seconds, _hit, payload = base
                base_blobs[(name, pipeline)] = pickle.dumps(compiled)
                base_traces[(name, pipeline)] = payload
            if stats is not None:
                metrics.merge_cache_stats(stats)

        # phase 2: per-cell retarget + simulate
        try:
            cell_futures = [
                pool.submit(_worker_cell, cell, base_blobs[cell.group],
                            cache_dir, cache_enabled, checked, trace, engine)
                for cell in cells
            ]
        except BrokenExecutor:
            # the pool died between phases: finish serially
            for index, cell in enumerate(cells):
                base = pickle.loads(base_blobs[cell.group])
                summary, cm, _ = _execute_cell(cell, cache, base, checked,
                                               trace, engine)
                _attach_base_trace(cell, cm)
                metrics.add_cell(cm)
                results[index] = summary
            return results  # type: ignore[return-value]

        for index, (cell, future) in enumerate(zip(cells, cell_futures)):
            try:
                summary, cm, stats = pickle.loads(
                    future.result(timeout=timeout))
            except AssertionError:
                raise
            except Exception:
                # transient (worker death, timeout, pickle hiccup):
                # retry once in the parent, serially
                base = pickle.loads(base_blobs[cell.group])
                summary, cm, _ = _execute_cell(cell, cache, base, checked,
                                               trace, engine)
                cm.attempts = 2
                cm.retries = 1
                stats = None
            _attach_base_trace(cell, cm)
            metrics.add_cell(cm)
            if stats is not None:
                metrics.merge_cache_stats(stats)
            results[index] = summary
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return results  # type: ignore[return-value]
