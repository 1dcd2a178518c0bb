"""``python -m repro.analysis.lint`` — sweep the bench corpus through the
sanitizer.

Each (benchmark, pipeline) pair is compiled (through the runner's disk
cache), retargeted at ``--capacity``, and linted across all phases.  Every
diagnostic prints in ``severity rule func/block#index: message`` form;
``--json`` emits the structured records instead.  Exit status is 1 if any
error-severity diagnostic fired, 2 on bad arguments — which is what lets
CI fail on a semantic regression no functional test happens to trip over.

Examples::

    python -m repro.analysis.lint --list-rules
    python -m repro.analysis.lint --benchmarks adpcm_dec --pipelines aggressive
    python -m repro.analysis.lint --json - --quiet

This module (not the rule engine) owns the dependency on the pipeline,
runner and bench registry, keeping :mod:`repro.analysis.lint.engine`
importable from :mod:`repro.pipeline` without a cycle.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import benchmark_names
from repro.pipeline import CheckedModeError, with_buffer
from repro.runner.cache import default_cache
from repro.runner.cli import parse_capacities, parse_csv
from repro.runner.parallel import PIPELINES, compile_base
from repro.runner.summary import format_table

from .diagnostics import Severity
from .engine import all_rules, get_rule, lint_compiled


def _capacity(value: str) -> int | None:
    """``--capacity``: one ``--capacities`` item of the runner (``none``,
    ``off`` and ``0`` disable the buffer)."""
    capacities = parse_capacities(value)
    if len(capacities) != 1:
        raise argparse.ArgumentTypeError(
            f"expected one capacity, got {value!r}")
    return capacities[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Semantic sanitizer sweep over the benchmark corpus.",
    )
    parser.add_argument("--benchmarks", type=parse_csv, default=None,
                        metavar="NAME[,NAME...]",
                        help="benchmark subset (default: the whole Table 1 "
                             "suite)")
    parser.add_argument("--pipelines", type=parse_csv,
                        default=list(PIPELINES),
                        metavar="PIPE[,PIPE...]",
                        help="traditional, aggressive or both (default both)")
    parser.add_argument("--capacity", type=_capacity, default=256,
                        help="buffer capacity in ops; none or 0 disables "
                             "the buffer (default 256)")
    parser.add_argument("--rules", type=parse_csv, default=None,
                        metavar="ID[,ID...]",
                        help="run only these rule ids (default: all)")
    parser.add_argument("--exclude-rules", type=parse_csv, default=None,
                        metavar="ID[,ID...]",
                        help="skip these rule ids (applied after --rules)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--checked", action="store_true",
                        help="also compile in per-pass checked mode (a "
                             "CheckedModeError reports as a failure)")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default: "
                             "REPRO_CACHE_DIR or .repro_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk cache entirely")
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="FILE",
                        help="write diagnostics JSON here ('-' = stdout)")
    parser.add_argument("--table", dest="table_path", default=None,
                        metavar="FILE",
                        help="also write the diagnostics + summary table "
                             "here (a CI-artifact-friendly text report)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-diagnostic lines and the summary "
                             "table")
    return parser


def _print_rules() -> None:
    rows = [[r.rule_id, r.phase, r.severity.value, r.doc]
            for r in all_rules()]
    print(format_table(["rule", "phase", "severity", "description"], rows,
                       f"{len(rows)} registered lint rules"))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0

    names = args.benchmarks or benchmark_names()
    known = set(benchmark_names())
    for name in names:
        if name not in known:
            print(f"unknown benchmark {name!r} (choose from "
                  f"{', '.join(sorted(known))})", file=sys.stderr)
            return 2
    for pipeline in args.pipelines:
        if pipeline not in PIPELINES:
            print(f"unknown pipeline {pipeline!r} (choose from "
                  f"{', '.join(PIPELINES)})", file=sys.stderr)
            return 2
    try:
        for rule_id in (args.rules or []) + (args.exclude_rules or []):
            get_rule(rule_id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    rule_ids = args.rules
    if args.exclude_rules:
        excluded = set(args.exclude_rules)
        rule_ids = [r.rule_id for r in all_rules()
                    if (args.rules is None or r.rule_id in args.rules)
                    and r.rule_id not in excluded]

    cache = default_cache(args.cache_dir, enabled=not args.no_cache)
    capacity = args.capacity
    records = []
    rows = []
    lines = []
    failed = False
    for name in names:
        for pipeline in args.pipelines:
            label = f"{name}/{pipeline}"
            try:
                base = compile_base(name, pipeline, cache=cache,
                                    checked=args.checked)
                compiled = with_buffer(base, capacity)
            except CheckedModeError as exc:
                failed = True
                lines.append(f"{label}: {exc}")
                if not args.quiet:
                    print(lines[-1])
                records.extend(
                    dict(d.to_dict(), benchmark=name, pipeline=pipeline)
                    for d in exc.diagnostics)
                rows.append([name, pipeline, len(exc.diagnostics), 0,
                             f"CHECKED ({exc.pass_name})"])
                continue
            diags = lint_compiled(compiled, rule_ids=rule_ids)
            errors = sum(1 for d in diags if d.severity is Severity.ERROR)
            warnings = sum(1 for d in diags
                           if d.severity is Severity.WARNING)
            failed = failed or errors > 0
            for d in diags:
                lines.append(f"{label}: {d.format()}")
                if not args.quiet:
                    print(lines[-1])
            records.extend(
                dict(d.to_dict(), benchmark=name, pipeline=pipeline)
                for d in diags)
            rows.append([name, pipeline, errors, warnings,
                         "FAIL" if errors else "ok"])

    table = format_table(
        ["benchmark", "pipeline", "errors", "warnings", "status"],
        rows, f"lint sweep at capacity {capacity or 'none'}")
    if not args.quiet:
        print(table)
    if args.table_path:
        report = "\n".join([*lines, table]) + "\n"
        if args.table_path == "-":
            print(report, end="")
        else:
            Path(args.table_path).write_text(report)
    if args.json_path:
        payload = json.dumps(records, indent=2)
        if args.json_path == "-":
            print(payload)
        else:
            Path(args.json_path).write_text(payload + "\n")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
