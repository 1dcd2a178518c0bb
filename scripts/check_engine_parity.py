"""Diff every profiling run of the pipelines: fast engine vs reference.

Compiles each benchmark through both pipelines with the default (fast)
engine.  Every ``profile_module`` call the pipelines make is also run on
the reference interpreter, and the two runs must agree on every
``Profile`` field (block, edge, op, taken and call counts, total ops),
on the return value, the step count and the final memory image.

A wrong profile still compiles correct code, so the differential fuzzer
cannot see a profiling bug; only this check and the golden digests can.

Usage:  PYTHONPATH=src python scripts/check_engine_parity.py

Exits 1 on any difference, after printing each one.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import repro.pipeline as pipeline  # noqa: E402
from repro.bench import benchmark, benchmark_names  # noqa: E402
from repro.sched.cache import clear_caches  # noqa: E402
from repro.sim.interp import profile_module  # noqa: E402

PIPELINES = {"traditional": pipeline.compile_traditional,
             "aggressive": pipeline.compile_aggressive}

PROFILE_FIELDS = ("blocks", "edges", "ops", "taken", "calls", "total_ops")


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


def check() -> list[str]:
    """Compile every benchmark through both pipelines, comparing each
    profiling run; returns one line per differing run."""
    failures: list[str] = []
    where = {"label": ""}
    calls = {"n": 0}

    def paired_profile_module(module, entry="main", args=None,
                              max_steps=200_000_000, engine=None,
                              record=False):
        fast = profile_module(module, entry, args, max_steps=max_steps,
                              engine="fast", record=record)
        ref = profile_module(module, entry, args, max_steps=max_steps,
                             engine="ref")
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
                compiler(bench.build(), entry=bench.entry, args=bench.args,
                         engine="fast")
                print(f"{where['label']}: {calls['n'] - before} "
                      "profiling run(s) compared")
    finally:
        pipeline.profile_module = stock
        clear_caches()
    print(f"{calls['n']} profiling runs, {len(failures)} difference(s)")
    return failures


def main() -> int:
    failures = check()
    for failure in failures:
        print(f"DIFFERENCE {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
