"""``python -m repro.obs perf`` — record, gate and trend perfbench results.

Subcommands::

    # run every perfbench workload, untraced and traced, into one file
    scripts/perf_results.sh perf-results.jsonl

    # append one baseline record per series to the history
    python -m repro.obs perf record perf-results.jsonl

    # the CI gate: fresh results vs. the stored baseline; exit 1 on a
    # failed run, a regression beyond the noise-aware allowance or a
    # broken absolute bound
    python -m repro.obs perf compare perf-results.jsonl

    # the trajectory: every stored series, with cumulative-drift alarms
    # on the live ones (those the newest recording carries)
    python -m repro.obs perf trend

``compare`` never writes to the history, so running it twice on one SHA
compares against the same baseline both times.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs.perf.history import (
    DEFAULT_HISTORY,
    History,
    env_fingerprint,
    fingerprint_key,
    git_sha,
    utc_stamp,
)
from repro.obs.perf.regress import (
    RETIRED,
    WALL_METRIC,
    Verdict,
    check_bound,
    gate,
    trend,
)
from repro.obs.perf.results import (
    ResultsError,
    collect,
    failed_runs,
    load_directions,
    read_results,
)
from repro.runner.summary import format_table


def add_perf_parser(sub) -> None:
    """Attach the ``perf`` subcommand tree to the obs CLI parser."""
    perf = sub.add_parser(
        "perf", help="record/gate/trend perfbench results")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    def _common(p, help_text):
        p.add_argument("results", type=Path, metavar="RESULTS",
                       help=help_text)
        p.add_argument("--history", type=Path, default=Path(DEFAULT_HISTORY),
                       metavar="PATH",
                       help=f"history JSONL (default {DEFAULT_HISTORY})")

    _common(perf_sub.add_parser(
        "record", help="append one baseline record per series"),
        "tagged perfbench result lines to record")
    _common(perf_sub.add_parser(
        "compare", help="fresh results vs. stored baseline; exit 1 on "
                        "regression"),
        "tagged perfbench result lines to gate")

    trend_p = perf_sub.add_parser(
        "trend", help="render stored trajectories; exit 1 on a live "
                      "series' drift")
    trend_p.add_argument("--bench", action="append", metavar="NAME[,NAME]",
                         help="restrict to these series names")
    trend_p.add_argument("--history", type=Path,
                         default=Path(DEFAULT_HISTORY), metavar="PATH")
    trend_p.add_argument("--budget", type=float, default=None, metavar="F")
    trend_p.add_argument("--json", type=Path, default=None, metavar="OUT")


def _read(path: Path):
    """A line per failed run of ``path``, and its series; raises
    :class:`ResultsError` on unreadable input."""
    runs = read_results(path)
    return failed_runs(runs), collect(runs, load_directions())


def _render_verdicts(verdicts: list[Verdict]) -> str:
    rows = []
    for v in verdicts:
        rows.append([
            v.bench, v.status,
            v.base_median if v.base_median is not None else "-",
            v.new_median,
            f"{v.ratio:.3f}" if v.ratio is not None else "-",
            v.layer or "-",
        ])
    return format_table(
        ["series", "status", "baseline", "new", "ratio", "blamed layer"],
        rows, "regression gate",
        align=["l", "l", "r", "r", "r", "l"])


def cmd_record(args) -> int:
    failed, series = _read(args.results)
    if failed:
        for line in failed:
            print(f"NOT RECORDED: failed run: {line}", file=sys.stderr)
        return 1
    env = env_fingerprint()
    env_key, sha = fingerprint_key(env), git_sha()
    history = History(args.history)
    # one stamp per recording: trend tells live series by it
    stamp = utc_stamp()
    for s in series.values():
        history.append({**s.as_record(env, env_key, sha),
                        "recorded_at": stamp})
    print(f"appended {len(series)} record(s) to {args.history}")
    bounds = [msg for s in series.values() if (msg := check_bound(s))]
    for msg in bounds:
        print(f"BOUND: {msg}", file=sys.stderr)
    return 1 if bounds else 0


def cmd_compare(args) -> int:
    failed, series = _read(args.results)
    if failed:
        for line in failed:
            print(f"GATE FAILED: failed run: {line}", file=sys.stderr)
        return 1
    verdicts = gate(series, History(args.history),
                    fingerprint_key(env_fingerprint()))
    print(_render_verdicts(verdicts))
    failed_verdicts = [v for v in verdicts if v.failed]
    if failed_verdicts:
        for v in failed_verdicts:
            print(f"GATE FAILED: {v.bench}: {v.detail}", file=sys.stderr)
        return 1
    print(f"\ngate ok: {len(verdicts)} series, no regression")
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
    newest = max(r.get("recorded_at", "") for r in history.records())
    # each workload's traced wall time per recording: a layer share
    # drifts only if the layer's implied seconds rose too
    walls: dict[str, dict[str, float]] = {}
    for record in history.records():
        workload, _, metric = record.get("bench", "").partition("/")
        if metric == WALL_METRIC and "recorded_at" in record:
            walls.setdefault(workload, {})[record["recorded_at"]] = float(
                record.get("median", 0.0))
    verdicts = []
    for bench, mode, config_hash in series:
        records = history.records(bench=bench, config_hash=config_hash)
        verdict = trend(records, budget=args.budget,
                        walls=walls.get(bench.partition("/")[0]))
        if all(r.get("recorded_at") != newest for r in records):
            verdict.status = RETIRED
            verdict.detail = (f"not in the newest recording ({newest}); "
                              "not drift-checked")
        verdicts.append(verdict)
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
        if args.perf_command == "record":
            return cmd_record(args)
        if args.perf_command == "compare":
            return cmd_compare(args)
        assert args.perf_command == "trend"
        return cmd_trend(args)
    except ResultsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
