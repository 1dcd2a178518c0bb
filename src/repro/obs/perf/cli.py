"""``python -m repro.obs perf`` — record, gate and trend benchmarks.

Subcommands::

    # list registered benches
    python -m repro.obs perf list

    # take fresh samples and append them to the history
    python -m repro.obs perf record --mode quick --samples 3

    # the CI gate: fresh samples vs. the stored baseline; exit 1 on a
    # regression beyond the noise-aware allowance or an absolute budget
    python -m repro.obs perf compare --history BENCH_history.jsonl

    # the trajectory: every stored series, with cumulative-drift alarms
    python -m repro.obs perf trend

``compare`` never writes to the baseline history itself (so running it
twice on one SHA compares against the same baseline both times); pass
``--record-out`` to append the fresh samples to a separate artifact.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs.perf import harness
from repro.obs.perf.harness import BenchError, check_budget, run_suite
from repro.obs.perf.history import DEFAULT_HISTORY, History
from repro.obs.perf.regress import (
    BUDGET_FAIL,
    DEFAULT_BUDGET,
    DEFAULT_MAD_K,
    DEFAULT_SECONDS_BUDGET,
    Verdict,
    compare_result,
    trend,
)
from repro.runner.summary import format_table


def add_perf_parser(sub) -> None:
    """Attach the ``perf`` subcommand tree to the obs CLI parser."""
    perf = sub.add_parser(
        "perf", help="record/gate/trend benchmarks (unified harness)")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    def _common(p, history_default=DEFAULT_HISTORY):
        p.add_argument("--bench", action="append", metavar="NAME[,NAME]",
                       help="bench names (default: the standard suite); "
                            "repeatable or comma-separated")
        p.add_argument("--mode", choices=("quick", "full"),
                       default="quick", help="grid size (default quick)")
        p.add_argument("--samples", type=int, default=None, metavar="N",
                       help="samples per bench (default 3 quick, 2 full)")
        p.add_argument("--history", type=Path, default=Path(history_default),
                       metavar="PATH",
                       help=f"history JSONL (default {history_default})")
        p.add_argument("--json", type=Path, default=None, metavar="OUT",
                       help="also write results/verdicts as JSON")

    listing = perf_sub.add_parser("list", help="registered benches")
    listing.add_argument("--json", action="store_true",
                         help="emit JSON instead of a table")

    record = perf_sub.add_parser(
        "record", help="take fresh samples and append them to the history")
    _common(record)
    record.add_argument("--no-append", action="store_true",
                        help="measure and print without touching history")

    compare = perf_sub.add_parser(
        "compare",
        help="fresh samples vs. stored baseline; exit 1 on regression")
    _common(compare)
    compare.add_argument("--budget", type=float, default=None,
                         metavar="F",
                         help="relative movement allowed (default "
                              f"{DEFAULT_BUDGET} for ratios, "
                              f"{DEFAULT_SECONDS_BUDGET} for seconds)")
    compare.add_argument("--mad-k", type=float, default=DEFAULT_MAD_K,
                         metavar="K",
                         help="noise multiplier: movement must exceed "
                              f"K*MAD too (default {DEFAULT_MAD_K})")
    compare.add_argument("--record-out", type=Path, default=None,
                         metavar="PATH",
                         help="append the fresh samples to this separate "
                              "history file (never the baseline)")

    trend_p = perf_sub.add_parser(
        "trend", help="render stored trajectories; exit 1 on drift")
    trend_p.add_argument("--bench", action="append", metavar="NAME[,NAME]",
                         help="restrict to these bench names")
    trend_p.add_argument("--history", type=Path,
                         default=Path(DEFAULT_HISTORY), metavar="PATH")
    trend_p.add_argument("--budget", type=float, default=None, metavar="F")
    trend_p.add_argument("--json", type=Path, default=None, metavar="OUT")


def _bench_names(args) -> list[str]:
    if not getattr(args, "bench", None):
        from repro.obs.perf.benches import DEFAULT_SUITE

        return list(DEFAULT_SUITE)
    names: list[str] = []
    for chunk in args.bench:
        names.extend(n.strip() for n in chunk.split(",") if n.strip())
    return names


def _samples(args) -> int:
    if args.samples is not None:
        return max(1, args.samples)
    return 3 if args.mode == "quick" else 2


def _result_rows(results) -> list[list]:
    rows = []
    for result in results.values():
        rows.append([
            result.name, result.mode, len(result.samples),
            result.median, result.mad, result.unit,
            result.config_hash,
        ])
    return rows


def _render_results(results) -> str:
    return format_table(
        ["bench", "mode", "n", "median", "mad", "unit", "config"],
        _result_rows(results), "benchmark results",
        align=["l", "l", "r", "r", "r", "l", "l"])


def _render_verdicts(verdicts: list[Verdict]) -> str:
    rows = []
    for v in verdicts:
        rows.append([
            v.bench, v.status,
            v.base_median if v.base_median is not None else "-",
            v.new_median,
            f"{v.ratio:.3f}" if v.ratio is not None else "-",
            v.phase or "-",
        ])
    return format_table(
        ["bench", "status", "baseline", "new", "ratio", "blamed phase"],
        rows, "regression gate",
        align=["l", "l", "r", "r", "r", "l"])


def cmd_list(args) -> int:
    names = harness.bench_names()
    if args.json:
        specs = []
        for name in names:
            spec = harness.get_spec(name)
            specs.append({
                "name": name,
                "kind": ("ratio" if isinstance(spec, harness.RatioSpec)
                         else "timing"),
                "unit": spec.unit,
                "direction": spec.direction,
                "budgets": dict(spec.budgets),
                "gate_budget": spec.gate_budget,
                "help": spec.help,
            })
        print(json.dumps(specs, indent=2))
        return 0
    rows = []
    for name in names:
        spec = harness.get_spec(name)
        kind = "ratio" if isinstance(spec, harness.RatioSpec) else "timing"
        rows.append([name, kind, spec.unit, spec.direction, spec.help])
    print(format_table(["bench", "kind", "unit", "better", "description"],
                       rows, "registered benches"))
    return 0


def cmd_record(args) -> int:
    names = _bench_names(args)
    results = run_suite(names, args.mode, _samples(args),
                        progress=lambda line: print(f"  {line}"))
    print(_render_results(results))
    appended = []
    if not args.no_append:
        history = History(args.history)
        for result in results.values():
            appended.append(history.append(result))
        print(f"\nappended {len(appended)} record(s) to {args.history}")
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(
            {r.name: r.as_record() for r in results.values()},
            indent=2, sort_keys=True) + "\n")
    failures = [msg for r in results.values()
                if (msg := check_budget(r))]
    for msg in failures:
        print(f"BUDGET: {msg}", file=sys.stderr)
    return 1 if failures else 0


def cmd_compare(args) -> int:
    names = _bench_names(args)
    history = History(args.history)
    results = run_suite(names, args.mode, _samples(args),
                        progress=lambda line: print(f"  {line}"))
    verdicts: list[Verdict] = []
    for result in results.values():
        baseline, env_match = history.baseline(
            result.name, result.config_hash, result.env_fingerprint)
        # --budget overrides everything; otherwise a spec may carry its
        # own gate budget (serve.speedup: cold and warm noise sources
        # are independent, so the ratio is wider than same-work ratios
        # such as obs.overhead); None falls through to the per-unit default
        budget = args.budget if args.budget is not None \
            else harness.get_spec(result.name).gate_budget
        verdict = compare_result(result, baseline, env_match,
                                 budget=budget, mad_k=args.mad_k)
        budget_msg = check_budget(result)
        if budget_msg and not verdict.failed:
            verdict.status = BUDGET_FAIL
            verdict.detail = budget_msg
        verdicts.append(verdict)

    print(_render_verdicts(verdicts))
    for v in verdicts:
        print(f"  {v.bench}: {v.detail}")
    if args.record_out:
        out = History(args.record_out)
        for result in results.values():
            out.append(result)
        print(f"\nappended {len(results)} record(s) to {args.record_out}")
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "results": {r.name: r.as_record() for r in results.values()},
            "verdicts": [v.as_dict() for v in verdicts],
        }, indent=2, sort_keys=True) + "\n")
    failed = [v for v in verdicts if v.failed]
    if failed:
        for v in failed:
            print(f"GATE FAILED: {v.bench}: {v.detail}", file=sys.stderr)
        return 1
    print(f"\ngate ok: {len(verdicts)} bench(es), no regression")
    return 0


def cmd_trend(args) -> int:
    history = History(args.history)
    series = history.benches()
    if getattr(args, "bench", None):
        wanted = set()
        for chunk in args.bench:
            wanted.update(n.strip() for n in chunk.split(",") if n.strip())
        series = [s for s in series if s[0] in wanted]
    if not series:
        print(f"no matching series in {args.history}", file=sys.stderr)
        return 2
    verdicts = []
    for bench, mode, config_hash in series:
        records = history.records(bench=bench, config_hash=config_hash)
        verdicts.append(trend(records, budget=args.budget))
    rows = []
    for v in verdicts:
        rows.append([
            v.bench, v.mode, v.points,
            v.first_median if v.first_median is not None else "-",
            v.last_median if v.last_median is not None else "-",
            f"{v.drift:+.1%}" if v.drift is not None else "-",
            v.status,
        ])
    print(format_table(
        ["bench", "mode", "points", "first", "last", "drift", "status"],
        rows, "benchmark trajectories",
        align=["l", "l", "r", "r", "r", "r", "l"]))
    for v in verdicts:
        if v.status != "ok":
            print(f"  {v.bench} ({v.mode}): {v.detail}")
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(
            [v.as_dict() for v in verdicts], indent=2, sort_keys=True)
            + "\n")
    drifted = [v for v in verdicts if v.failed]
    if drifted:
        for v in drifted:
            print(f"DRIFT: {v.bench} ({v.mode}): {v.detail}",
                  file=sys.stderr)
        return 1
    return 0


def main_perf(args) -> int:
    try:
        if args.perf_command == "list":
            return cmd_list(args)
        if args.perf_command == "record":
            return cmd_record(args)
        if args.perf_command == "compare":
            return cmd_compare(args)
        assert args.perf_command == "trend"
        return cmd_trend(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
