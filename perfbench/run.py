"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 10 \
        --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs one
traced pass and prints the per-layer metrics instead, with a self-time
table whose rows sum to the traced pass's wall time, a coverage row and
the tracing overhead (traced over untraced wall time); the spans are
written to ``.perfbench_out/spans-<workload>.json``.  The last line of
standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Every end-to-end time is scaled to the nominal host speed by the
:mod:`perfbench.clock` gauge, which samples the host's speed from the
start of set-up to the end of the untraced passes; the traced pass runs
with the gauge stopped and is compared with raw untraced times.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("paper-cold", "paper-warm", "fuzz-corpus", "serve-mixed")

#: end-to-end metric -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "sim_cycles": "cycles",
    "static_ops": "ops",
    "buffer_issue_frac": "frac",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure untraced passes for at least this long "
                             "(at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _modelled_metrics(modelled: dict) -> dict[str, float]:
    issued = modelled.get("ops_issued", 0)
    return {
        "sim_cycles": modelled.get("sim_cycles", 0),
        "static_ops": modelled.get("static_ops", 0),
        "buffer_issue_frac": (modelled.get("ops_from_buffer", 0) / issued
                              if issued else 0.0),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.clock import Gauge

    gauge = Gauge()
    gauge.start()
    try:
        return _run(args, gauge)
    finally:
        gauge.stop()


def _run(args, gauge) -> int:
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench import checks, layers, patch, report
    from perfbench.spans import Recorder
    from perfbench.stats import Tally, percentile, tail_percentile
    from perfbench.workloads import WORKLOADS, Measure, median_setup
    from repro.bench import benchmark_names

    # set-up: the program modules this workload uses and the registry
    workload_cls = WORKLOADS[args.workload]
    for module in workload_cls.modules:
        importlib.import_module(module)
    benchmark_names()
    imported = time.perf_counter()
    import_s = ((imported - _START - gauge.spent_s)
                / gauge.slowness(_START, imported))
    # the rest of the program, untimed: a module first imported while a
    # timer or probe is installed would keep the wrapper for good
    patch.import_all()

    workload = workload_cls(args.seed, OUT_DIR, checks.load_golden())
    try:
        prepare_s = median_setup(workload, gauge)
        passes, slowness = [], []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            measure = Measure(gauge)
            passes.append(workload.run_pass(measure))
            slowness.append(measure.slowness)
        gauge.stop()
        traced = rec = None
        if args.trace:
            rec = Recorder()
            traced = workload.run_pass(Measure(rec=rec))
    finally:
        workload.close()

    tally = Tally()
    for result in passes + ([traced] if traced else []):
        tally.merge(result.tally)
    leftovers = patch.leftover_wrappers()
    if leftovers:
        tally.reasons[f"wrappers left installed: {leftovers}"] += 1
    modelled = [p.modelled for p in passes + ([traced] if traced else [])]
    if any(m != modelled[0] for m in modelled):
        tally.reasons["modelled results differ between passes"] += 1

    raw_wall_s = statistics.median(p.wall_s for p in passes)
    wall_s = statistics.median(p.wall_s / s for p, s in zip(passes, slowness))
    latencies = [lat / s for p, s in zip(passes, slowness)
                 for lat in p.latencies]
    if not latencies:
        tally.reasons["no unit completed"] += 1
        latencies = [0.0]
    try:
        tail = tail_percentile(len(latencies))
    except ValueError as exc:
        tally.reasons[f"req_p95_s: {exc}"] += 1
        tail = 100.0
    # unit latency is reported with the per-layer metrics: the seed
    # decides which unit of a benchmark pays its shared compile, so its
    # percentiles spread across seeds by more than any bound allows
    latency = {"req_p50_s": percentile(latencies, 50.0),
               "req_p95_s": percentile(latencies, tail)}
    e2e = {
        "wall_s": wall_s,
        "setup_s": import_s + prepare_s,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
        "pass_frac": tally.pass_frac,
        **_modelled_metrics(modelled[0]),
    }
    print(report.header(args, passes, slowness, import_s, prepare_s,
                        len(latencies), tail))
    print(report.metric_table({**e2e, **latency},
                              {**END_TO_END, "req_p50_s": "s",
                               "req_p95_s": "s"}))
    if traced is not None:
        OUT_DIR.mkdir(exist_ok=True)
        rec.dump(OUT_DIR / f"spans-{args.workload}.json")
        per_layer = layers.layer_metrics(rec, traced.wall_s, raw_wall_s,
                                         traced.extra)
        per_layer.update(latency)
        print(report.layer_table(rec, traced.wall_s, raw_wall_s,
                                 args.workload))
        print(report.per_layer_table(per_layer))
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _better, _moves in layers.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for reason, count in sorted(tally.reasons.items()):
        print(f"FAILED x{count}: {reason}")
    correct = tally.failed == 0 and not tally.reasons
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
