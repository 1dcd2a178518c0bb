"""Diff the fast engines against the reference engines they replace.

Two checks, both against the reference classes built directly:

* every profiling run of the pipelines: each benchmark is compiled
  through both pipelines, and every ``profile_module`` call they make
  (the fast :class:`~repro.sim.engine.FastInterpreter`) is also run on
  the reference :class:`~repro.sim.interp.Interpreter`.  The two runs
  must agree on every ``Profile`` field (block, edge, op, taken and call
  counts, total ops), on the return value, the step count and the final
  memory image.  A wrong profile still compiles correct code, so the
  differential fuzzer cannot see a profiling bug; only this check and
  the golden digests can.
* the quick simulation grid (adpcm_enc and mpeg2_dec, both pipelines,
  capacities 64 and 256): each cell's ``run_compiled`` outcome, which
  replays the base's pass trace, and a full run of the same artifact on
  the fast :class:`~repro.sim.engine.FastVLIWSimulator` (what checked
  mode cross-checks the replay against) must each equal a full run on
  the reference :class:`~repro.sim.vliw.VLIWSimulator` in value, steps,
  every ``SimCounters`` field (``per_block`` and ``per_loop`` included)
  and the loop buffer's stats.

Usage:  PYTHONPATH=src python scripts/check_engine_parity.py

Exits 1 on any difference, after printing each one.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import repro.pipeline as pipeline  # noqa: E402
from repro.analysis.profile import Profile  # noqa: E402
from repro.bench import benchmark, benchmark_names  # noqa: E402
from repro.loopbuffer.model import LoopBuffer  # noqa: E402
from repro.sched.cache import clear_caches  # noqa: E402
from repro.sim.interp import Interpreter, profile_module  # noqa: E402
from repro.sim.replay import ReplayedRun  # noqa: E402
from repro.sim.vliw import VLIWSimulator, simulate  # noqa: E402

PIPELINES = {"traditional": pipeline.compile_traditional,
             "aggressive": pipeline.compile_aggressive}

PROFILE_FIELDS = ("blocks", "edges", "ops", "taken", "calls", "total_ops")

#: the cells the retired ``sim.speedup`` bench compared (its quick grid)
SIM_BENCHMARKS = ("adpcm_enc", "mpeg2_dec")
SIM_CAPACITIES = (64, 256)


def run_differences(fast, ref) -> list[str]:
    """Every field on which two ``(profile, run)`` pairs differ."""
    (fast_prof, fast_run), (ref_prof, ref_run) = fast, ref
    diffs = []
    for name in PROFILE_FIELDS:
        a, b = getattr(fast_prof, name), getattr(ref_prof, name)
        if isinstance(a, dict):
            a, b = dict(a), dict(b)
        if a != b:
            diffs.append(f"profile.{name}")
    for name in ("value", "steps"):
        if getattr(fast_run, name) != getattr(ref_run, name):
            diffs.append(name)
    if fast_run.memory._words != ref_run.memory._words:
        diffs.append("memory")
    return diffs


def reference_profile(module, entry, args, max_steps):
    profile = Profile()
    run = Interpreter(module, profile=profile,
                      max_steps=max_steps).run(entry, args)
    return profile, run


def check_profiles(bases: dict) -> list[str]:
    """Compile every benchmark through both pipelines, comparing each
    profiling run; returns one line per differing run.  The unbuffered
    bases of :data:`SIM_BENCHMARKS` land in ``bases``."""
    failures: list[str] = []
    where = {"label": ""}
    calls = {"n": 0}

    def paired_profile_module(module, entry="main", args=None,
                              max_steps=200_000_000, record=False):
        fast = profile_module(module, entry, args, max_steps=max_steps,
                              record=record)
        ref = reference_profile(module, entry, args, max_steps)
        calls["n"] += 1
        diffs = run_differences(fast, ref)
        if diffs:
            failures.append(f"{where['label']} run {calls['n']}: "
                            f"{', '.join(diffs)}")
        return fast

    stock = pipeline.profile_module
    pipeline.profile_module = paired_profile_module
    try:
        for name in benchmark_names():
            bench = benchmark(name)
            for pipe, compiler in PIPELINES.items():
                where["label"] = f"{name}/{pipe}"
                before = calls["n"]
                base = compiler(bench.build(), entry=bench.entry,
                                args=bench.args, buffer_capacity=None)
                if name in SIM_BENCHMARKS:
                    bases[(name, pipe)] = base
                print(f"{where['label']}: {calls['n'] - before} "
                      "profiling run(s) compared")
    finally:
        pipeline.profile_module = stock
        clear_caches()
    print(f"{calls['n']} profiling runs, {len(failures)} difference(s)")
    return failures


def sim_differences(run, ref) -> list[str]:
    """Every field on which one ``(result, counters, buffer)`` simulation
    differs from another."""
    (result, counters, buffer), (ref_result, ref_counters, ref_buffer) = \
        run, ref
    diffs = []
    for name in ("value", "steps"):
        if getattr(result, name) != getattr(ref_result, name):
            diffs.append(name)
    for field in dataclasses.fields(ref_counters):
        if (getattr(counters, field.name)
                != getattr(ref_counters, field.name)):
            diffs.append(f"counters.{field.name}")
    stats = buffer.stats if buffer is not None else None
    if stats != (ref_buffer.stats if ref_buffer is not None else None):
        diffs.append("buffer stats")
    return diffs


def reference_simulate(compiled):
    capacity = compiled.buffer_capacity
    buffer = LoopBuffer(capacity) if capacity else None
    sim = VLIWSimulator(compiled.module, compiled.schedules, compiled.modulo,
                        compiled.machine, buffer)
    return sim.run(compiled.entry, compiled.args), sim.counters, buffer


def fast_simulate(compiled):
    """A full fast-engine simulation of the artifact, never replayed."""
    return simulate(compiled.module, compiled.schedules, compiled.modulo,
                    compiled.machine, compiled.buffer_capacity,
                    compiled.entry, compiled.args, trace=None)


def check_cells(bases: dict) -> list[str]:
    """Quick-grid cells, replayed and simulated in full on the fast
    engine, vs the reference VLIW simulator."""
    failures: list[str] = []
    for (name, pipe), base in sorted(bases.items()):
        for capacity in SIM_CAPACITIES:
            compiled = pipeline.with_buffer(base, capacity)
            ref = reference_simulate(compiled)
            outcome = pipeline.run_compiled(compiled)
            diffs = ([] if isinstance(outcome.result, ReplayedRun)
                     else ["not replayed"])
            diffs += [f"replayed {diff}" for diff in sim_differences(
                (outcome.result, outcome.counters, outcome.buffer), ref)]
            diffs += [f"full {diff}" for diff in
                      sim_differences(fast_simulate(compiled), ref)]
            label = f"{name}/{pipe}@{capacity}"
            print(f"{label}: {'differs' if diffs else 'identical'}")
            if diffs:
                failures.append(f"{label}: {', '.join(diffs)}")
    print(f"{len(bases) * len(SIM_CAPACITIES)} simulated cells, "
          f"{len(failures)} difference(s)")
    return failures


def check() -> list[str]:
    bases: dict = {}
    failures = check_profiles(bases)
    return failures + check_cells(bases)


def main() -> int:
    failures = check()
    for failure in failures:
        print(f"DIFFERENCE {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
