"""``python -m repro.obs`` — inspect and validate trace artifacts.

Subcommands::

    # schema-check a Chrome trace (exit 1 on any violation)
    python -m repro.obs validate .repro_trace/trace.json

    # per-pass / per-loop summary of a trace dir or artifact
    python -m repro.obs report .repro_trace
    python -m repro.obs report .repro_trace/report.json --json

    # span-level profiling: slowest spans, flamegraph export
    python -m repro.obs report .repro_trace --top 10
    python -m repro.obs report .repro_trace --flame out.folded

    # benchmark observability (see repro.obs.perf)
    python -m repro.obs perf record|compare|trend|list

The ``report`` command accepts the runner's trace directory, its
``report.json``, or the Perfetto ``trace.json`` (the report is then
folded from it, as the runner folds it).  ``--top``/``--flame`` need
span-level data, so they require the trace directory or ``trace.json``
itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.export import (
    TRACE_FILENAME,
    REPORT_FILENAME,
    render_report,
    trace_report,
    validate_chrome_trace,
)


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _resolve_report(path: Path) -> dict:
    if path.is_dir():
        report = path / REPORT_FILENAME
        if report.exists():
            return _load(report)
        trace = path / TRACE_FILENAME
        if trace.exists():
            return trace_report(_load(trace))
        raise FileNotFoundError(
            f"{path}: neither {REPORT_FILENAME} nor {TRACE_FILENAME} found")
    doc = _load(path)
    if "traceEvents" in doc:
        return trace_report(doc)
    return doc


def _resolve_trace_doc(path: Path) -> dict:
    """A Chrome trace document (span-level data for --top/--flame)."""
    if path.is_dir():
        trace = path / TRACE_FILENAME
        if trace.exists():
            return _load(trace)
        raise FileNotFoundError(
            f"{path}: no {TRACE_FILENAME} (span-level output needs the "
            "trace itself, not the report)")
    doc = _load(path)
    if "traceEvents" not in doc:
        raise ValueError(
            f"{path}: not a Chrome trace; --top/--flame need "
            f"{TRACE_FILENAME} or its directory")
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect and validate repro trace artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser(
        "validate", help="Chrome trace-event schema check (exit 1 on error)")
    validate.add_argument("path", type=Path,
                          help="trace JSON file, or a trace directory")

    report = sub.add_parser(
        "report", help="per-pass / per-loop summary of a trace")
    report.add_argument("path", type=Path,
                        help="trace directory, report.json or trace.json")
    report.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of tables")
    report.add_argument("--top", type=int, default=None, metavar="N",
                        help="also list the N slowest individual spans")
    report.add_argument("--flame", type=Path, default=None, metavar="OUT",
                        help="write collapsed stacks (flamegraph.pl / "
                             "speedscope format); '-' for stdout")

    from repro.obs.perf.cli import add_perf_parser

    add_perf_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "validate":
        path = args.path
        if path.is_dir():
            path = path / TRACE_FILENAME
        try:
            doc = _load(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        errors = validate_chrome_trace(doc)
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        if errors:
            return 1
        events = doc["traceEvents"] if isinstance(doc, dict) else doc
        print(f"{path}: valid Chrome trace ({len(events)} events)")
        return 0

    if args.command == "perf":
        from repro.obs.perf.cli import main_perf

        return main_perf(args)

    assert args.command == "report"
    try:
        report = _resolve_report(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))

    if args.top is not None or args.flame is not None:
        from repro.obs.perf.profile import PhaseProfile
        from repro.runner.summary import format_table

        try:
            profile = PhaseProfile.from_chrome_trace(
                _resolve_trace_doc(args.path))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.top is not None:
            rows = [
                [";".join(span.path[:-1]) or "-", span.name,
                 span.wall_us / 1e6, span.self_us / 1e6]
                for span in profile.top_spans(args.top)
            ]
            print()
            print(format_table(
                ["under", "span", "wall s", "self s"], rows,
                f"top {args.top} slowest spans",
                align=["l", "l", "r", "r"]))
        if args.flame is not None:
            lines = profile.collapsed_lines()
            if str(args.flame) == "-":
                for line in lines:
                    print(line)
            else:
                args.flame.parent.mkdir(parents=True, exist_ok=True)
                args.flame.write_text("\n".join(lines) + "\n")
                print(f"\nflame: {args.flame} ({len(lines)} stacks)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
