"""``python -m repro.fuzz`` — drive the differential fuzzer from the shell.

Examples::

    # fuzz 300 seeded programs over the default config grid
    python -m repro.fuzz run --seeds 300 --workers 4

    # demonstrate that an injected miscompilation is caught + minimized
    python -m repro.fuzz run --seeds 50 --inject-fault ifconvert-guard-drop

    # replay the checked-in regression corpus
    python -m repro.fuzz replay

    # minimize one divergent seed by hand and print the reproducer
    python -m repro.fuzz minimize --seed 1234 --inject-fault dce-drop-store

    # inspect what a seed generates
    python -m repro.fuzz gen --seed 7

``run`` exits non-zero on any divergence; every divergence is minimized
(unless ``--no-minimize``) and written into the corpus directory so it
becomes a permanent regression test, and into ``--artifacts`` (if given)
for CI upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.fuzz.corpus import Corpus, CorpusEntry, default_corpus
from repro.fuzz.faults import FAULTS
from repro.fuzz.gen import generate
from repro.fuzz.oracle import (
    DEFAULT_MAX_STEPS,
    check_many,
    check_program,
    default_configs,
    oracle_configs,
    retarget_configs,
    service_configs,
)
from repro.fuzz.reduce import DEFAULT_BUDGET, divergence_predicate, minimize
from repro.runner.cache import default_cache
from repro.sched.cache import CHECK_STATS, FRONTEND_STATS, MemoStats


def _csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _capacities(value: str) -> list[int | None]:
    out: list[int | None] = []
    for item in _csv(value):
        out.append(None if item.lower() in ("none", "off") else int(item))
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing: random MKC programs through "
                    "the interpreter and every pipeline configuration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(p):
        p.add_argument("--pipelines", type=_csv,
                       default=["traditional", "aggressive"],
                       metavar="PIPE[,PIPE...]")
        p.add_argument("--capacities", type=_capacities,
                       default=[None, 16, 64], metavar="N[,N...]",
                       help="buffer capacities; 'none' disables the buffer "
                            "(default none,16,64)")
        p.add_argument("--no-checked", action="store_true",
                       help="skip checked-mode sanitizer sweeps (faster, "
                            "misses lint-only divergences)")
        p.add_argument("--workers", type=int, default=None,
                       help="process-pool width (default: REPRO_WORKERS or "
                            "core count; 0/1 = serial)")
        p.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
        p.add_argument("--inject-fault", choices=sorted(FAULTS),
                       default=None, metavar="NAME",
                       help="deliberately miscompile to validate the "
                            f"fuzzer ({', '.join(sorted(FAULTS))})")
        p.add_argument("--sched-oracle", action="store_true",
                       help="add configs that swap exact-oracle modulo "
                            "schedules into the backend and check them "
                            "for semantic agreement")
        p.add_argument("--retarget", action="store_true",
                       help="add configs that retarget a capacity-"
                            "independent base through with_buffer")
        p.add_argument("--service", action="store_true",
                       help="add configs whose compiled half is routed "
                            "through an in-process repro.serve service, "
                            "checking the full request path against the "
                            "interpreter")

    run = sub.add_parser("run", help="fuzz N seeded random programs")
    add_grid(run)
    run.add_argument("--seeds", type=int, default=100, metavar="N",
                     help="number of programs to generate (default 100)")
    run.add_argument("--start", type=int, default=0, metavar="S",
                     help="first seed (default 0)")
    run.add_argument("--corpus", default=None, metavar="DIR",
                     help="corpus dir for minimized reproducers (default: "
                          "REPRO_FUZZ_CORPUS or tests/fuzz_corpus)")
    run.add_argument("--artifacts", default=None, metavar="DIR",
                     help="also write reproducers + a summary here "
                          "(for CI upload)")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="reuse the runner artifact cache for verdicts "
                          "(off by default: fuzzing wants fresh checks)")
    run.add_argument("--no-minimize", action="store_true")
    run.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="max predicate evaluations per minimization")
    run.add_argument("--json", dest="json_path", default=None, metavar="FILE")
    run.add_argument("--quiet", action="store_true")

    replay = sub.add_parser("replay",
                            help="re-check every corpus reproducer")
    add_grid(replay)
    replay.add_argument("--corpus", default=None, metavar="DIR")
    replay.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="serve unchanged entries from the artifact "
                             "cache")
    replay.add_argument("--quiet", action="store_true")

    mini = sub.add_parser("minimize", help="minimize one divergent program")
    add_grid(mini)
    mini.add_argument("--seed", type=int, default=None)
    mini.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    mini.add_argument("--save", action="store_true",
                      help="write the reproducer into the corpus")
    mini.add_argument("--corpus", default=None, metavar="DIR")

    gen = sub.add_parser("gen", help="print the program for one seed")
    gen.add_argument("--seed", type=int, required=True)
    return parser


def _configs_from(args) -> tuple:
    configs = default_configs(args.pipelines, args.capacities,
                              checked=not args.no_checked)
    if getattr(args, "sched_oracle", False):
        configs += oracle_configs(args.pipelines)
    if getattr(args, "retarget", False):
        configs += retarget_configs(args.pipelines)
    if getattr(args, "service", False):
        configs += service_configs(args.pipelines)
    return configs


def _minimize_report(report, program, configs, args):
    failing = [v.config for v in report.divergences]
    predicate = divergence_predicate(failing, args.max_steps,
                                     args.inject_fault)
    return minimize(program, predicate, budget=args.budget)


def _cmd_run(args) -> int:
    configs = _configs_from(args)
    corpus = default_corpus(args.corpus)
    cache = default_cache(args.cache_dir) if args.cache_dir else None
    programs = [generate(seed)
                for seed in range(args.start, args.start + args.seeds)]

    t0 = time.perf_counter()
    checks_before = CHECK_STATS.counts()
    frontends_before = FRONTEND_STATS.counts()
    reports = check_many(programs, configs, workers=args.workers,
                         cache=cache, max_steps=args.max_steps,
                         fault=args.inject_fault)
    wall = time.perf_counter() - t0
    check_memo = MemoStats(*CHECK_STATS.since(checks_before)).as_dict()
    frontend_memo = MemoStats(
        *FRONTEND_STATS.since(frontends_before)).as_dict()

    failures = [(program, report)
                for program, report in zip(programs, reports)
                if not report.ok]
    saved: list[CorpusEntry] = []
    for program, report in failures:
        minimized = None
        if not args.no_minimize:
            minimized = _minimize_report(report, program, configs, args)
        entry = CorpusEntry.from_report(report, minimized,
                                        fault=args.inject_fault)
        saved.append(entry)
        corpus.add(entry)
        if not args.quiet:
            first = report.divergences[0]
            print(f"DIVERGENCE seed={report.seed}: {first.describe()}")
            print(f"  reproducer ({entry.line_count} lines) -> "
                  f"{corpus.root / (entry.id + '.json')}")

    if args.artifacts:
        art = Path(args.artifacts)
        art.mkdir(parents=True, exist_ok=True)
        for entry in saved:
            (art / f"{entry.id}.json").write_text(
                json.dumps(entry.as_dict(), indent=2, sort_keys=True) + "\n")
            (art / f"{entry.id}.mkc").write_text(entry.source)
        (art / "summary.json").write_text(json.dumps({
            "seeds": args.seeds, "start": args.start,
            "configs": [c.label for c in configs],
            "fault": args.inject_fault,
            "divergences": len(failures),
            "reproducers": [e.id for e in saved],
            "wall_time_s": round(wall, 3),
            "check_memo": check_memo,
            "frontend_memo": frontend_memo,
        }, indent=2) + "\n")

    if not args.quiet:
        grid = len(configs)
        print(f"fuzz: {args.seeds} programs x {grid} configs in "
              f"{wall:.1f}s -> {len(failures)} divergence(s)")
    if args.json_path:
        payload = json.dumps({
            "seeds": args.seeds, "divergences": len(failures),
            "configs": [c.label for c in configs],
            "wall_time_s": round(wall, 3),
            "check_memo": check_memo,
            "frontend_memo": frontend_memo,
        })
        if args.json_path == "-":
            print(payload)
        else:
            Path(args.json_path).write_text(payload + "\n")
    return 1 if failures else 0


def _cmd_replay(args) -> int:
    corpus = default_corpus(args.corpus)
    entries = corpus.entries()
    if not entries:
        if not args.quiet:
            print(f"corpus {corpus.root}: no entries")
        return 0
    cache = default_cache(args.cache_dir) if args.cache_dir else None
    results = corpus.replay(workers=args.workers, cache=cache,
                            max_steps=args.max_steps)
    bad = [(entry, report) for entry, report in results if not report.ok]
    for entry, report in bad:
        print(f"REGRESSION {entry.id} (seed={entry.seed}): "
              f"{report.divergences[0].describe()}")
    if not args.quiet:
        print(f"replay: {len(results)} reproducer(s), "
              f"{len(bad)} regression(s)")
    return 1 if bad else 0


def _cmd_minimize(args) -> int:
    if args.seed is None:
        print("minimize: --seed is required", file=sys.stderr)
        return 2
    configs = _configs_from(args)
    program = generate(args.seed)
    report = check_program(program, configs, args.max_steps,
                           args.inject_fault)
    if report.ok:
        print(f"seed {args.seed}: no divergence on "
              f"{', '.join(c.label for c in configs)}")
        return 0
    minimized = _minimize_report(report, program, configs, args)
    print(f"# seed {args.seed}: {report.divergences[0].describe()}")
    print(f"# minimized {program.line_count} -> {minimized.line_count} lines")
    print(minimized.source, end="")
    if args.save:
        entry = CorpusEntry.from_report(report, minimized,
                                        fault=args.inject_fault)
        path = default_corpus(args.corpus).add(entry)
        print(f"# saved -> {path}")
    return 1


def _cmd_gen(args) -> int:
    print(generate(args.seed).source, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = {
        "run": _cmd_run,
        "replay": _cmd_replay,
        "minimize": _cmd_minimize,
        "gen": _cmd_gen,
    }[args.command]
    return command(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
