"""Human-readable tables printed above the result line."""

from __future__ import annotations

import math

from perfbench.layers import PER_LAYER

#: the traced table's rows must sum to within this share of wall time
COVERAGE_TOLERANCE = 0.05

#: what each workload's traced pass runs outside every probe, so a gap
#: can be named rather than hidden
KNOWN_GAPS = {
    "paper-cold": "the benchmark's own loop between the figure calls",
    "paper-warm": "the benchmark's own loop between the figure calls",
    "fuzz-corpus": "the benchmark's own loop over the corpus",
    "serve-mixed": "idle time, when no thread runs a probed call, and the "
                   "worker pool's untraced queue and future hand-offs",
}


def header(args, passes, slowness, import_s: float, prepare_s: float,
           samples: int, tail: float) -> str:
    walls = ", ".join(f"{p.wall_s:.3f}" for p in passes)
    slow = ", ".join(f"{s:.3f}" for s in slowness)
    beyond = samples - math.ceil(samples * tail / 100.0)
    return (f"workload {args.workload}  seed {args.seed}  "
            f"{len(passes)} untraced pass(es): raw wall_s [{walls}], "
            f"host slowness [{slow}]\n"
            f"setup (scaled): import+registry {import_s:.3f}s, preparation "
            f"(median) {prepare_s:.3f}s\n"
            f"unit latency: {samples} samples; req_p95_s is p{tail:g} "
            f"(the highest percentile with >= 10 samples beyond it: "
            f"{beyond})")


def metric_table(values: dict, units: dict) -> str:
    lines = ["end-to-end metrics (tracing off):"]
    for name, unit in units.items():
        lines.append(f"  {name:<20} {values[name]:>16.6g} {unit}")
    return "\n".join(lines)


def layer_table(rec, traced_wall: float, untraced_wall: float,
                workload: str) -> str:
    clock = "thread CPU" if rec.multithreaded else "wall"
    by_layer = rec.by_layer()
    calls: dict[str, int] = {}
    for span in rec.spans:
        calls[span.layer] = calls.get(span.layer, 0) + 1
    lines = [f"per-layer self time ({clock} clock, traced pass "
             f"{traced_wall:.3f}s):",
             f"  {'layer':<18} {'self s':>10} {'share':>8} {'spans':>8}"]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<18} {seconds:>10.4f} "
                     f"{seconds / traced_wall:>8.1%} {calls[layer]:>8}")
    total = sum(by_layer.values())
    coverage = total / traced_wall if traced_wall else 0.0
    lines.append(f"  {'coverage (sum)':<18} {total:>10.4f} {coverage:>8.1%}")
    gap = traced_wall - total
    if abs(1.0 - coverage) > COVERAGE_TOLERANCE:
        lines.append(f"  GAP {gap:.4f}s ({gap / traced_wall:.1%} of wall) is "
                     f"in no layer span: {KNOWN_GAPS[workload]}")
    else:
        lines.append(f"  gap {gap:.4f}s is within "
                     f"{COVERAGE_TOLERANCE:.0%} of wall")
    ratio = traced_wall / untraced_wall if untraced_wall else 0.0
    lines.append(f"  tracing overhead: traced wall_s {traced_wall:.3f} / "
                 f"untraced wall_s {untraced_wall:.3f} = {ratio:.3f}x")
    return "\n".join(lines)


def per_layer_table(values: dict) -> str:
    lines = ["per-layer metrics (metric, value, unit, should move):"]
    for name, unit, _better, moves in PER_LAYER:
        lines.append(f"  {name:<27} {values[name]:>14.6g} {unit:<6} {moves}")
    return "\n".join(lines)
