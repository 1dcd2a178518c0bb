"""Shared driver behind the ``scripts/bench_*.py`` entry points.

Each script names one *headline* bench (a ratio with an absolute budget
— ``sim.speedup``, ``obs.overhead``, ``serve.speedup``), and this module
does the rest: run the suite through the unified harness, write the
``repro-bench-v1`` document (the BENCH_*.json shape, one schema for all
three), optionally append every result to the benchmark history, enforce
the budgets, and print the human summary.

The v1 document deprecates the three ad-hoc shapes the scripts used to
write; it is simply::

    {"schema": "repro-bench-v1", "suite": ..., "mode": ...,
     "headline": {"bench", "median", "unit", "budget", "direction"},
     "benches": {name: BenchResult.as_record(), ...},
     "description": ..., "command": ..., "date": ...}
"""

from __future__ import annotations

import json
import sys
from datetime import date
from pathlib import Path

from repro.obs.perf.harness import (
    BenchError,
    check_budget,
    get_spec,
    run_suite,
)
from repro.obs.perf.history import History

SCHEMA = "repro-bench-v1"


def run_suite_script(argv: list[str], *, suite: str, headline: str,
                     description: str, default_out: Path,
                     extras: tuple[str, ...] = ()) -> int:
    """The whole life of one bench script; returns its exit code.

    Args: ``[out.json] [--quick] [--samples N | --repeat N]
    [--history PATH]``.  ``extras`` names additional specs to run and
    record beside the headline (e.g. an ungated throughput series).
    Exit codes: 0 ok, 1 under budget, 2 the benchmark itself failed
    (divergent artifacts, bad usage).
    """
    argv = list(argv[1:])
    quick = "--quick" in argv
    if quick:
        argv.remove("--quick")
    samples = 1 if quick else 2
    for flag in ("--samples", "--repeat"):
        if flag in argv:
            at = argv.index(flag)
            samples = int(argv[at + 1])
            del argv[at:at + 2]
    history_path = None
    if "--history" in argv:
        at = argv.index("--history")
        history_path = Path(argv[at + 1])
        del argv[at:at + 2]
    out_path = Path(argv[0]) if argv else default_out
    mode = "quick" if quick else "full"

    try:
        results = run_suite([headline, *extras], mode, samples,
                            progress=lambda line: print(f"  {line}"))
    except BenchError as exc:
        print(f"BENCH FAILED: {exc}", file=sys.stderr)
        return 2

    head = results[headline]
    budget = get_spec(headline).budgets.get(mode)
    doc = {
        "schema": SCHEMA,
        "suite": suite,
        "description": description,
        "command": (f"PYTHONPATH=src python scripts/bench_{suite}.py"
                    + (" --quick" if quick else "")),
        "mode": mode,
        "headline": {
            "bench": headline,
            "median": round(head.median, 6),
            "unit": head.unit,
            "direction": head.direction,
            "budget": budget,
        },
        "benches": {name: result.as_record()
                    for name, result in results.items()},
        "date": date.today().isoformat(),
    }
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    for name, result in results.items():
        if name == headline:
            continue
        print(f"{name}: median {result.median:.3f}{result.unit} "
              f"(mad {result.mad:.3f}, {len(result.samples)} sample(s))")
    better = "<=" if head.direction == "lower" else ">="
    print(f"{headline}: {head.median:.2f}{head.unit}"
          + (f" (budget {better} {budget:g}{head.unit})"
             if budget is not None else "")
          + ", artifacts verified identical")
    print(f"wrote {out_path}")

    if history_path is not None:
        history = History(history_path)
        for result in results.values():
            history.append(result)
        print(f"appended {len(results)} record(s) to {history_path}")

    failures = [msg for r in results.values() if (msg := check_budget(r))]
    for msg in failures:
        print(f"UNDER BUDGET: {msg}", file=sys.stderr)
    return 1 if failures else 0
