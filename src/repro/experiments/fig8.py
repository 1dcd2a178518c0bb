"""Figure 8 — net effects of the buffering transformations.

(a) per benchmark, transformed-vs-traditional ratios: execution cycles
(speedup; paper average 1.81x), static code size (ILP transforms trade
size for speed), bundles issued, total operations fetched.

(b) estimated instruction-fetch power, normalized to *unbuffered*
traditionally-optimized execution: the paper reports -34.6% for merely
buffering the baseline and -72.3% for buffering the transformed code,
using the Cacti-calibrated 41.8x memory/buffer per-access energy ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench import benchmark_names
from repro.sim.power import FetchEnergy, unbuffered_baseline

from .common import (
    HEADLINE_CAPACITY,
    experiment_args,
    format_table,
    prewarm,
    run_at_capacity,
)


@dataclass
class Fig8Row:
    name: str
    speedup: float
    code_size_ratio: float
    bundle_ratio: float
    fetch_ratio: float
    power_baseline_buffered: float   # normalized fetch energy
    power_transformed_buffered: float


@dataclass
class Fig8Result:
    rows: list[Fig8Row] = field(default_factory=list)

    def average_speedup(self, exclude: tuple[str, ...] = ()) -> float:
        rows = [r for r in self.rows if r.name not in exclude]
        if not rows:
            return 0.0
        product = 1.0
        for r in rows:
            product *= r.speedup
        return product ** (1.0 / len(rows))

    def average_power_reduction(self) -> tuple[float, float]:
        """(baseline-buffered, transformed-buffered) mean reductions."""
        base = sum(r.power_baseline_buffered for r in self.rows) / len(self.rows)
        trans = sum(r.power_transformed_buffered for r in self.rows) / len(self.rows)
        return 1.0 - base, 1.0 - trans


def run(names: list[str] | None = None,
        capacity: int = HEADLINE_CAPACITY,
        workers: int | None = None) -> Fig8Result:
    names = names or benchmark_names()
    # the three cells per benchmark fan out through the runner first
    prewarm(names, ("traditional", "aggressive"), (capacity,),
            workers=workers)
    prewarm(names, ("traditional",), (None,), workers=workers)
    result = Fig8Result()
    for name in names:
        trad = run_at_capacity(name, "traditional", capacity)
        aggr = run_at_capacity(name, "aggressive", capacity)
        trad_unbuffered = run_at_capacity(name, "traditional", None)

        baseline_energy = unbuffered_baseline(trad_unbuffered.ops_issued)
        trad_energy = FetchEnergy(trad.ops_from_memory, trad.ops_from_buffer,
                                  capacity)
        aggr_energy = FetchEnergy(aggr.ops_from_memory, aggr.ops_from_buffer,
                                  capacity)
        result.rows.append(Fig8Row(
            name=name,
            speedup=trad.cycles / aggr.cycles if aggr.cycles else 0.0,
            code_size_ratio=(aggr.static_ops / trad.static_ops
                             if trad.static_ops else 0.0),
            bundle_ratio=(aggr.bundles / trad.bundles
                          if trad.bundles else 0.0),
            fetch_ratio=(aggr.ops_issued / trad.ops_issued
                         if trad.ops_issued else 0.0),
            power_baseline_buffered=trad_energy.normalized_to(baseline_energy),
            power_transformed_buffered=aggr_energy.normalized_to(baseline_energy),
        ))
    return result


def report(result: Fig8Result) -> str:
    rows_a = [
        [r.name, r.speedup, r.code_size_ratio, r.bundle_ratio, r.fetch_ratio]
        for r in result.rows
    ]
    parts = [format_table(
        ["benchmark", "speedup", "code size x", "bundles x", "total fetch x"],
        rows_a,
        "Figure 8(a): transformed vs traditional "
        "(paper: avg speedup 1.81, code size grows, fetch grows)",
    )]
    rows_b = [
        [r.name, r.power_baseline_buffered, r.power_transformed_buffered]
        for r in result.rows
    ]
    parts.append(format_table(
        ["benchmark", "baseline buffered", "transformed buffered"],
        rows_b,
        "Figure 8(b): fetch power normalized to unbuffered traditional "
        "(paper averages: 0.654 and 0.277)",
    ))
    base_red, trans_red = result.average_power_reduction()
    parts.append(
        f"mean fetch-power reduction: baseline buffered {base_red:.1%} "
        f"(paper 34.6%), transformed buffered {trans_red:.1%} (paper 72.3%)"
    )
    parts.append(
        f"geometric-mean speedup: {result.average_speedup():.2f}x "
        f"(paper arithmetic avg: 1.81x)"
    )
    return "\n\n".join(parts)


def main() -> None:  # pragma: no cover
    experiment_args(__doc__)
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
