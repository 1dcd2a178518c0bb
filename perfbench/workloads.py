"""The benchmark's four workloads.

All four are closed loops in one process.  ``paper-cold`` and
``paper-warm`` run the ``examples/reproduce_paper.py`` path (Figures 3,
5, 7 over the full 11 x 2 x 8 grid, and 8) serially through the
:mod:`repro.experiments` facade; ``fuzz-corpus`` runs a fixed corpus of
generated programs through the differential oracle; ``serve-mixed``
drives a fresh in-process service with two client threads.

The seed only permutes orders: the benchmark and capacity order the
figure runs see, the program order of the fuzz corpus, and the request
stream of serve-mixed.  The inputs themselves are fixed, so every
seed does the same work and must give the same results.

A workload prepares once or more (:meth:`Workload.prepare`, timed as
set-up), then runs passes (:meth:`Workload.run_pass`).  A pass times only
its measured region and checks its outputs afterwards.  Before each pass
the program's process-wide caches are dropped, so every pass starts from
the state a fresh process would have.
"""

from __future__ import annotations

import functools
import itertools
import random
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import checks, layers
from perfbench.clock import Gauge
from perfbench.patch import Patcher
from perfbench.spans import Recorder
from perfbench.stats import OK, Tally

from repro.bench import benchmark_names
from repro.experiments import common, fig3, fig5, fig7, fig8
from repro.runner.cache import ArtifactCache
from repro.sched.cache import clear_caches
from repro.analysis.dependence import dependence_cache_stats
from repro.sim.engine import SHARED_DECODE_STATS, reset_shared_decode

#: the ``examples/reproduce_paper.py`` full-run settings
FIG5_SIZES = (16, 32, 64, 256)
FIG7_SIZES = common.FIG7_SIZES

#: the fuzz corpus: generator seeds 0 .. FUZZ_PROGRAMS - 1, the first
#: seeds the nightly sweep draws, whatever their size
FUZZ_PROGRAMS = 34

#: serve-mixed: every Figure 7 cell once, plus this many repeats drawn
#: from two extra copies of each cell (so 1-3 requests per cell)
SERVE_REPEATS = 132
SERVE_CLIENTS = 2
SERVE_WORKERS = 2


@dataclass
class PassResult:
    wall_s: float
    #: per-unit latencies, seconds
    latencies: list[float]
    tally: Tally
    #: sim_cycles, static_ops, ops_from_buffer, ops_issued
    modelled: dict[str, int]
    #: per-layer numbers the program counts itself (traced passes only)
    extra: dict[str, float] = field(default_factory=dict)
    #: paper passes: cell key -> summary digest
    digests: dict[str, str] = field(default_factory=dict)


class Measure:
    """Times a measured region on ``gauge`` (its raw seconds, less the
    gauge's own time, and the host's slowness over it) and, when
    tracing, installs the probes around it (installation and removal are
    outside the timed span).  An unstarted gauge reads a slowness of 1."""

    def __init__(self, gauge: Gauge | None = None,
                 rec: Recorder | None = None) -> None:
        self.gauge = gauge if gauge is not None else Gauge()
        self.rec = rec
        self.wall_s = 0.0
        self.slowness = 1.0

    @contextmanager
    def tracing(self):
        if self.rec is None:
            yield
            return
        with Patcher() as patcher:
            layers.install(patcher, self.rec)
            yield

    @contextmanager
    def timed(self):
        try:
            with self.gauge.interval() as interval:
                yield
        finally:
            self.wall_s = interval.raw_s
            self.slowness = interval.slowness

    @contextmanager
    def __call__(self):
        with self.tracing(), self.timed():
            yield


def reset_process_state() -> None:
    """Drop the program's process-wide memo tables, as a new process
    would start: schedule placements, dependence graphs, shared decodes."""
    clear_caches()
    reset_shared_decode()


def _program_counters(before: dict) -> dict[str, float]:
    """Counter ratios the program keeps itself, over one pass."""
    dep = dependence_cache_stats()
    dep_hits = dep.hits - before["dep_hits"]
    dep_total = dep_hits + dep.misses - before["dep_misses"]
    decode = SHARED_DECODE_STATS
    decode_total = decode.block_hits + decode.block_misses
    return {
        "sched.dep_hit_frac": dep_hits / dep_total if dep_total else 0.0,
        "sim.decode_hit_frac": (decode.block_hits / decode_total
                                if decode_total else 0.0),
    }


def _counter_snapshot() -> dict:
    dep = dependence_cache_stats()
    return {"dep_hits": dep.hits, "dep_misses": dep.misses}


class _Tap:
    """Times each call of ``target`` (both modes: it defines the unit
    latency), optionally capturing results."""

    def __init__(self, target: str, capture=None) -> None:
        self.target = target
        self.capture = capture
        self.latencies: list[float] = []

    def install(self, patcher: Patcher) -> None:
        module_name, _, attr = self.target.partition(":")
        latencies, capture = self.latencies, self.capture

        def make(original):
            @functools.wraps(original)
            def timed(*args, **kwargs):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                latencies.append(time.perf_counter() - start)
                if capture is not None:
                    capture(args, result)
                return result
            return timed

        patcher.function(module_name, attr, make)


class Workload:
    name = ""
    #: how many times :meth:`prepare` runs for the set-up median
    setup_repeats = 5
    #: program modules the workload uses beyond this module's own imports;
    #: run.py imports them as part of set-up
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir: Path, golden: dict) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.golden = golden
        self.rng = random.Random(seed)
        self._dirs = itertools.count()

    def scratch_dir(self, label: str) -> Path:
        path = self.out_dir / f"{label}-{next(self._dirs)}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, measure: Measure) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- paper-cold / paper-warm -------------------------------------------------------


def paper_cells() -> list[tuple[str, str, int | None]]:
    """The Figure 7 grid (176 cells) then Figure 8's unbuffered cells."""
    names = benchmark_names()
    grid = [(name, pipeline, size)
            for pipeline in ("traditional", "aggressive")
            for name in names for size in FIG7_SIZES]
    return grid + [(name, "traditional", None) for name in names]


def run_paper_path(names, sizes, fig5_sizes) -> dict:
    """The reproduce_paper.py path: run and render every figure."""
    r3 = fig3.run(list(names))
    fig3.report(r3)
    r5 = fig5.run(tuple(fig5_sizes))
    fig5.report(r5)
    r7 = fig7.run(list(names), tuple(sizes), workers=1)
    fig7.report(r7)
    r8 = fig8.run(list(names), workers=1)
    fig8.report(r8)
    return {"fig3": r3, "fig5": r5, "fig7": r7, "fig8": r8}


def paper_outputs(figures: dict) -> dict:
    """Digests of one finished paper pass (reads the facade's memo)."""
    cells = {checks.cell_key(*cell): common.run_at_capacity(*cell)
             for cell in paper_cells()}
    grid = list(cells.values())[:176]
    canonical = {"fig3": checks.fig3_data, "fig5": checks.fig5_data,
                 "fig7": checks.fig7_data, "fig8": checks.fig8_data}
    return {
        "cells": {key: checks.summary_digest(s) for key, s in cells.items()},
        "grid176": checks.digest([checks.canonical(s) for s in grid]),
        "figures": {name: checks.digest(canonical[name](result))
                    for name, result in figures.items()},
        "summaries": grid,
    }


def modelled(summaries) -> dict[str, int]:
    return {
        "sim_cycles": sum(s.cycles for s in summaries),
        "static_ops": sum(s.static_ops for s in summaries),
        "ops_from_buffer": sum(s.ops_from_buffer for s in summaries),
        "ops_issued": sum(s.ops_issued for s in summaries),
    }


class PaperWorkload(Workload):
    cold = True

    def __init__(self, seed: int, out_dir: Path, golden: dict) -> None:
        super().__init__(seed, out_dir, golden)
        self.names = benchmark_names()
        self.rng.shuffle(self.names)
        self.sizes = list(FIG7_SIZES)
        self.rng.shuffle(self.sizes)
        self.fig5_sizes = list(FIG5_SIZES)
        self.rng.shuffle(self.fig5_sizes)
        self.cache_dir: Path | None = None

    def prepare(self) -> None:
        self.close()
        self.cache_dir = self.scratch_dir(f"cache-{self.name}")
        if not self.cold:
            # fill the cache: one unmeasured cold pass
            reset_process_state()
            common.reset(ArtifactCache(self.cache_dir))
            run_paper_path(self.names, self.sizes, self.fig5_sizes)

    def run_pass(self, measure: Measure) -> PassResult:
        if self.cold:
            self.prepare()      # a fresh, empty cache for every cold pass
        reset_process_state()
        common.reset(ArtifactCache(self.cache_dir))
        timer = _Tap("repro.runner.parallel:_execute_cell")
        figures = None
        before = _counter_snapshot()
        tally = Tally()
        with Patcher() as taps:
            timer.install(taps)
            try:
                with measure():
                    figures = run_paper_path(self.names, self.sizes,
                                             self.fig5_sizes)
            except Exception as exc:  # a failed pass is a result
                tally.add_lost(len(paper_cells()) + 4,
                               f"pass raised {type(exc).__name__}: {exc}")
        extra = _program_counters(before)
        if figures is None:
            return PassResult(measure.wall_s, timer.latencies, tally, {},
                              extra)
        out = paper_outputs(figures)
        for key, value in out["cells"].items():
            tally.add(OK if self.golden["cells"].get(key) == value
                      else f"cell digest mismatch {key}")
        for name, value in out["figures"].items():
            tally.add(OK if self.golden["figures"].get(name) == value
                      else f"figure digest mismatch {name}")
        if out["grid176"] != self.golden["grid176"]:
            tally.reasons["grid176 digest mismatch"] += 1
        return PassResult(measure.wall_s, timer.latencies, tally,
                          modelled(out["summaries"]), extra, out["cells"])

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


class PaperCold(PaperWorkload):
    name = "paper-cold"
    cold = True


class PaperWarm(PaperWorkload):
    name = "paper-warm"
    cold = False
    setup_repeats = 1     # one cache fill is a whole cold pass


# -- fuzz-corpus -------------------------------------------------------------------


def fuzz_corpus() -> list[int]:
    """Generator seeds of the fixed fuzz corpus."""
    return list(range(FUZZ_PROGRAMS))


class FuzzCorpus(Workload):
    name = "fuzz-corpus"
    modules = ("repro.fuzz.gen", "repro.fuzz.oracle")

    def prepare(self) -> None:
        from repro.fuzz.gen import generate
        from repro.fuzz.oracle import default_configs

        rng = random.Random(self.seed)
        seeds = fuzz_corpus()
        rng.shuffle(seeds)
        self.programs = [generate(seed) for seed in seeds]
        # configs keep the oracle's own order: a program's configs share
        # schedule caches, so their order moves per-config latencies
        self.configs = default_configs()

    def run_pass(self, measure: Measure) -> PassResult:
        from repro.fuzz.oracle import check_program

        reset_process_state()
        counters = {"sim_cycles": 0, "static_ops": 0, "ops_from_buffer": 0,
                    "ops_issued": 0}

        def capture(args, outcome):
            c = outcome.counters
            counters["sim_cycles"] += c.cycles
            counters["static_ops"] += args[0].static_ops
            counters["ops_from_buffer"] += c.ops_from_buffer
            counters["ops_issued"] += c.ops_issued

        timer = _Tap("repro.fuzz.oracle:compiled_outcome")
        sims = _Tap("repro.pipeline:run_compiled", capture)
        reports = []
        tally = Tally()
        before = _counter_snapshot()
        with Patcher() as taps:
            timer.install(taps)
            sims.install(taps)
            try:
                with measure():
                    for program in self.programs:
                        reports.append(check_program(program, self.configs))
            except Exception as exc:
                tally.add_lost(len(self.programs) * len(self.configs),
                               f"pass raised {type(exc).__name__}: {exc}")
        extra = _program_counters(before)
        if len(reports) != len(self.programs):
            return PassResult(measure.wall_s, timer.latencies, tally, {},
                              extra)
        if (sorted(p.seed for p in self.programs)
                != sorted(self.golden["fuzz_corpus"])):
            tally.reasons["fuzz corpus differs from golden"] += 1
        golden = self.golden["fuzz"]
        for program, report in zip(self.programs, reports):
            expected = golden.get(str(program.seed), {})
            for verdict in report.verdicts:
                label = verdict.config.label
                if not verdict.ok:
                    tally.add(f"divergence {program.seed} {label}: "
                              f"{verdict.kind}")
                elif expected.get(label) != checks.verdict_digest(verdict):
                    tally.add(f"verdict digest mismatch {program.seed} "
                              f"{label}")
                else:
                    tally.add()
        return PassResult(measure.wall_s, timer.latencies, tally, counters,
                          extra)


# -- serve-mixed -------------------------------------------------------------------


def response_outcome(request, response, golden_cells: dict) -> str:
    """``"ok"``, or why the response fails: any status but ``ok`` (a
    refused ``overloaded``, a ``timeout``, a ``trap``, an ``error``), or a
    summary that differs from paper-cold's golden summary for its cell."""
    if not response.ok:
        return f"{response.status}: {response.error}"
    key = checks.cell_key(request.benchmark, request.pipeline,
                          request.capacity)
    summary = (response.payload or {}).get("summary")
    if summary is None or checks.summary_digest(summary) != golden_cells.get(key):
        return f"summary digest mismatch {key}"
    return OK


class _TimedClient:
    """Times each request at the client; in traced passes also opens the
    request's top span on the client thread."""

    def __init__(self, client, latencies: dict, rec: Recorder | None):
        self.client = client
        self.latencies = latencies
        self.rec = rec

    def request(self, request):
        start = time.perf_counter()
        if self.rec is None:
            response = self.client.request(request)
        else:
            with self.rec.unit(f"req:{request.id}"), \
                    self.rec.span("serve", "request"):
                response = self.client.request(request)
        self.latencies[request.id] = time.perf_counter() - start
        return response


class ServeMixed(Workload):
    name = "serve-mixed"
    modules = ("repro.serve.protocol", "repro.serve.service",
               "repro.serve.client")

    def prepare(self) -> None:
        from repro.serve.protocol import Request
        from repro.serve.service import Service, ServiceConfig

        rng = random.Random(self.seed)
        cells = paper_cells()[:176]
        extra = rng.sample(cells * 2, SERVE_REPEATS)
        stream = cells + extra
        rng.shuffle(stream)
        self.requests = [
            Request(kind="run", benchmark=name, pipeline=pipeline,
                    capacity=capacity, id=f"r{index}")
            for index, (name, pipeline, capacity) in enumerate(stream)]
        # the service start: an empty cache directory and two workers
        cache_dir = self.scratch_dir("serve")
        Service(ServiceConfig(workers=SERVE_WORKERS,
                              cache_dir=str(cache_dir))).close()
        shutil.rmtree(cache_dir, ignore_errors=True)

    def run_pass(self, measure: Measure) -> PassResult:
        from repro.serve.client import Client, drive
        from repro.serve.service import Service, ServiceConfig

        reset_process_state()
        cache_dir = self.scratch_dir("serve")
        latencies: dict[str, float] = {}
        tally = Tally()
        responses = None
        before = _counter_snapshot()
        with measure.tracing():
            service = Service(ServiceConfig(workers=SERVE_WORKERS,
                                            cache_dir=str(cache_dir)))
            try:
                with measure.timed():
                    responses = drive(
                        lambda: _TimedClient(Client(service), latencies,
                                             measure.rec),
                        self.requests, concurrency=SERVE_CLIENTS)
            except Exception as exc:
                tally.add_lost(len(self.requests),
                               f"drive raised {type(exc).__name__}: {exc}")
            finally:
                service.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
        extra = _program_counters(before)
        stats = service.stats
        bases = (stats.base_memo_hits + stats.base_cache_hits
                 + stats.base_compiles)
        extra.update({
            "serve.run_hit_frac": stats.run_cache_hits / max(1, stats.requests),
            "serve.coalesced_frac": stats.coalesced / max(1, stats.requests),
            "serve.base_memo_hit_frac": (stats.base_memo_hits / bases
                                         if bases else 0.0),
            "serve.computations": stats.computations,
        })
        if responses is None:
            return PassResult(measure.wall_s, list(latencies.values()),
                              tally, {}, extra)
        from repro.serve.protocol import summary_from_dict

        firsts = {}
        for request, response in zip(self.requests, responses):
            outcome = response_outcome(request, response,
                                       self.golden["cells"])
            tally.add(outcome)
            if outcome == OK:
                firsts.setdefault(
                    checks.cell_key(request.benchmark, request.pipeline,
                                    request.capacity),
                    summary_from_dict(response.payload["summary"]))
        summaries = [firsts[key] for key in
                     (checks.cell_key(*c) for c in paper_cells()[:176])
                     if key in firsts]
        return PassResult(measure.wall_s,
                          [latencies[r.id] for r in self.requests
                           if r.id in latencies],
                          tally, modelled(summaries), extra)


WORKLOADS = {cls.name: cls for cls in (PaperCold, PaperWarm, FuzzCorpus,
                                        ServeMixed)}


def median_setup(workload: Workload, gauge: Gauge) -> float:
    """Median scaled seconds of ``workload.setup_repeats`` preparations."""
    times = []
    for _ in range(workload.setup_repeats):
        with gauge.interval() as interval:
            workload.prepare()
        times.append(interval.scaled_s)
    return statistics.median(times)
