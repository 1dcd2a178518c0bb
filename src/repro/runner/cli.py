"""``python -m repro.runner`` — run an experiment grid from the shell.

Examples::

    # one smoke cell, reporting cache traffic as JSON
    python -m repro.runner --benchmarks adpcm_enc --pipelines aggressive \\
        --capacities 64 --json metrics.json

    # the full Figure 7 grid, 4 workers, fresh cache
    python -m repro.runner --capacities 16,32,64,128,256,512,1024,2048 \\
        --workers 4 --cache-dir /tmp/repro-cache

    # trace one cell; open trace.json in https://ui.perfetto.dev
    python -m repro.runner --benchmarks mpg123 --pipelines aggressive \\
        --capacities 128 --trace /tmp/repro-trace

    # cache maintenance: per-kind usage, then evict LRU past 256 MiB
    python -m repro.runner cache stats
    python -m repro.runner cache gc --max-bytes 256m

Exit status is non-zero on any checksum mismatch.  ``--json`` writes the
:class:`~repro.runner.metrics.MetricsRecorder` payload (wall time,
per-cell stage timings, cache hits/misses/evictions) for machine
consumption; the human table always prints unless ``--quiet``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.bench import benchmark_names
from repro.obs import DEFAULT_TRACE_DIR
from repro.obs.export import (
    REPORT_FILENAME,
    TRACE_FILENAME,
    to_chrome_trace,
    trace_report,
    write_json,
)
from repro.pipeline import CheckedModeError
from repro.runner.cache import (
    DEFAULT_CACHE_DIR,
    ENV_CACHE_DIR,
    default_cache,
    gc_lru,
    iter_entries,
    usage_by_kind,
)
from repro.runner.metrics import MetricsRecorder
from repro.runner.parallel import PIPELINES, expand_grid, run_grid
from repro.runner.summary import format_table


def parse_csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def parse_capacities(value: str) -> list[int | None]:
    """``--capacities`` of both CLIs: ``none``/``off``/``0`` disable the
    buffer; anything else must be a positive int."""
    out: list[int | None] = []
    for item in parse_csv(value):
        if item.lower() in ("none", "off"):
            out.append(None)
        elif item.isdecimal():
            out.append(int(item) or None)
        else:
            raise argparse.ArgumentTypeError(
                f"capacity must be 'none' or an int >= 0, got {item!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Parallel, disk-cached (benchmark x pipeline x "
                    "capacity) experiment grid runner.",
    )
    parser.add_argument("--benchmarks", type=parse_csv, default=None,
                        metavar="NAME[,NAME...]",
                        help="benchmark subset (default: the whole Table 1 "
                             "suite)")
    parser.add_argument("--pipelines", type=parse_csv, default=list(PIPELINES),
                        metavar="PIPE[,PIPE...]",
                        help="traditional, aggressive or both (default both)")
    parser.add_argument("--capacities", type=parse_capacities, default=[256],
                        metavar="N[,N...]",
                        help="buffer capacities in ops; 'none' or 0 disables "
                             "the buffer (default 256)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: REPRO_WORKERS or "
                             "the core count; 0/1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default: "
                             "REPRO_CACHE_DIR or .repro_cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk cache entirely")
    parser.add_argument("--checked", action="store_true",
                        help="compile in checked mode: run the semantic "
                             "sanitizer after every pass and fail on the "
                             "first violation")
    parser.add_argument("--trace", dest="trace_dir", nargs="?",
                        const=DEFAULT_TRACE_DIR, metavar="DIR",
                        help="record per-cell span/event traces and write "
                             f"{TRACE_FILENAME} (Chrome trace-event / "
                             f"Perfetto) plus {REPORT_FILENAME} into DIR "
                             f"(default {DEFAULT_TRACE_DIR})")
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="FILE",
                        help="write runner metrics JSON here ('-' = stdout)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable tables")
    return parser


# --------------------------------------------------------------------------
# cache maintenance: ``python -m repro.runner cache stats|gc``


def _size(value: str) -> int:
    """Byte count with an optional k/m/g suffix (binary multiples); the
    type of every cache-size option.  A negative bound would make the
    LRU gc evict everything."""
    text = value.strip().lower()
    scale = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}.get(text[-1:], 1)
    size = int(float(text[:-1] if scale != 1 else text) * scale)
    if size < 0:
        raise argparse.ArgumentTypeError(
            f"size must not be negative, got {value!r}")
    return size


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner cache",
        description="Artifact-cache maintenance: per-kind usage "
                    "accounting and LRU eviction.",
    )
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: REPRO_CACHE_DIR "
                             f"or {DEFAULT_CACHE_DIR})")
    sub = parser.add_subparsers(dest="cache_command", required=True)
    stats = sub.add_parser(
        "stats", help="entry count and bytes per artifact kind")
    stats.add_argument("--json", dest="json_path", default=None,
                       metavar="FILE",
                       help="write the usage payload here ('-' = stdout)")
    gc = sub.add_parser(
        "gc", help="evict least-recently-used entries past a size bound")
    gc.add_argument("--max-bytes", type=_size, required=True, metavar="N",
                    help="target total size; accepts k/m/g suffixes "
                         "(e.g. 256m)")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be evicted without deleting")
    gc.add_argument("--json", dest="json_path", default=None, metavar="FILE",
                    help="write the eviction payload here ('-' = stdout)")
    return parser


def _emit_json(payload: dict, json_path: str | None) -> None:
    if not json_path:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    if json_path == "-":
        print(text)
    else:
        Path(json_path).write_text(text + "\n")


def cache_main(argv: list[str]) -> int:
    args = build_cache_parser().parse_args(argv)
    root = Path(args.cache_dir or os.environ.get(ENV_CACHE_DIR)
                or DEFAULT_CACHE_DIR)

    if args.cache_command == "stats":
        entries = iter_entries(root)
        usage = usage_by_kind(entries)
        total_bytes = sum(e.bytes for e in entries)
        rows: list = [[kind, bucket["entries"], bucket["bytes"]]
                      for kind, bucket in usage.items()]
        if rows:
            rows.append("-")
        rows.append([f"total ({root})", len(entries), total_bytes])
        print(format_table(["kind", "entries", "bytes"], rows,
                           "artifact cache usage", align=["l", "r", "r"]))
        _emit_json({"root": str(root), "kinds": usage,
                    "entries": len(entries), "bytes": total_bytes},
                   args.json_path)
        return 0

    assert args.cache_command == "gc"
    evicted, kept_bytes = gc_lru(root, args.max_bytes, dry_run=args.dry_run)
    verb = "would evict" if args.dry_run else "evicted"
    print(f"{verb} {len(evicted)} entr{'y' if len(evicted) == 1 else 'ies'} "
          f"({sum(e.bytes for e in evicted)} bytes); {kept_bytes} bytes "
          f"kept (bound {args.max_bytes})")
    _emit_json({
        "root": str(root),
        "max_bytes": args.max_bytes,
        "dry_run": args.dry_run,
        "evicted": [{"key": e.key, "kind": e.kind, "bytes": e.bytes}
                    for e in evicted],
        "evicted_bytes": sum(e.bytes for e in evicted),
        "kept_bytes": kept_bytes,
    }, args.json_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["cache"]:
        return cache_main(argv[1:])
    args = build_parser().parse_args(argv)
    names = args.benchmarks or benchmark_names()
    for pipeline in args.pipelines:
        if pipeline not in PIPELINES:
            print(f"unknown pipeline {pipeline!r} (choose from "
                  f"{', '.join(PIPELINES)})", file=sys.stderr)
            return 2
    known = set(benchmark_names())
    for name in names:
        if name not in known:
            print(f"unknown benchmark {name!r} (choose from "
                  f"{', '.join(sorted(known))})", file=sys.stderr)
            return 2

    cache = default_cache(args.cache_dir, enabled=not args.no_cache)
    metrics = MetricsRecorder()
    cells = expand_grid(names, args.pipelines, args.capacities)
    try:
        summaries = run_grid(cells, workers=args.workers, cache=cache,
                             metrics=metrics,
                             checked=args.checked,
                             trace=bool(args.trace_dir))
    except AssertionError as exc:
        print(f"CHECKSUM MISMATCH: {exc}", file=sys.stderr)
        return 1
    except CheckedModeError as exc:
        print(f"CHECKED MODE: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        rows = [
            [s.name, s.pipeline,
             s.capacity if s.capacity is not None else "-",
             s.cycles, s.ops_issued, f"{s.buffer_fraction:.1%}"]
            for s in summaries
        ]
        print(format_table(
            ["benchmark", "pipeline", "cap", "cycles", "ops", "buffer%"],
            rows, "grid results"))
        print()
        print(metrics.to_table())

    if args.trace_dir:
        cell_traces = [c.trace for c in metrics.cells if c.trace is not None]
        doc = to_chrome_trace(cell_traces)
        trace_path = write_json(Path(args.trace_dir) / TRACE_FILENAME, doc)
        report_path = write_json(Path(args.trace_dir) / REPORT_FILENAME,
                                 trace_report(doc))
        if not args.quiet:
            print(f"\ntrace: {trace_path} ({len(cell_traces)} cells)"
                  f"\nreport: {report_path}")

    if args.json_path:
        payload = metrics.to_json()
        if args.json_path == "-":
            print(payload)
        else:
            Path(args.json_path).write_text(payload + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
