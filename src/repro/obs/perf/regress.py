"""Noise-aware regression and drift detection over benchmark series.

The gate never fires on a single noisy sample.  A fresh
:class:`~repro.obs.perf.results.Series` (one sample per perfbench run)
is compared to the stored baseline by *medians*, and the allowed
movement is the larger of a relative budget and a multiple of the
*baseline's* noise scale::

    allowed = max(budget * |baseline_median|, mad_k * base_mad)

so a quiet baseline is held to the relative budget while a noisy one
must move beyond its own noise floor to alarm.  Only the baseline MAD
counts: letting the fresh run's spread widen the gate would let a
regression that arrives with extra variance mask itself.  Direction-aware:
``lower`` series (seconds, shares) regress upward, ``higher`` series
(hit fractions) regress downward.  A regressed per-layer series names
its layer (``sched.list_s``): the difference between *detectable* and
*diagnosable*.

:func:`trend` guards the other failure mode: a slow drift where every
step stays under the gate but the series walks away over weeks.  It
compares the median of the newest ``window`` records against the oldest
``window`` across the stored trajectory and alarms on cumulative
movement beyond the budget.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: the unit of a layer's seconds over the traced pass's wall time
SHARE = "share"

#: default relative movement allowed before the gate fires on a
#: dimensionless series (run-to-run machine noise mostly divides out)
DEFAULT_BUDGET = 0.25
#: default budget for absolute-unit (seconds) series: machine load
#: moves raw wall/CPU seconds by tens of percent run-to-run even on one
#: box, and the in-run MAD cannot see that between-run component, so
#: seconds get a wide gross-error budget while the dimensionless series
#: and the absolute bounds carry the tight contract
DEFAULT_SECONDS_BUDGET = 0.5
#: budget for a layer's share of the traced wall time: a 20% slowdown of
#: a layer that takes a tenth of the pass moves its share by 18%, so the
#: share budget sits below that; the baseline's own MAD still widens it
#: for a noisy layer
SHARE_BUDGET = 0.1
#: default noise multiplier: movement must also exceed mad_k * noise
DEFAULT_MAD_K = 5.0
#: absolute floor under the noise term, so an all-zero MAD series
#: (timer-resolution-flat samples) still tolerates timer jitter
NOISE_FLOOR_S = 1e-4
#: the noise floor of a layer share: a layer must move by more than
#: DEFAULT_MAD_K times this (half a percent of the traced wall time) to
#: alarm, so a layer too small to matter cannot fail the gate on jitter
SHARE_NOISE_FLOOR = 1e-3

#: units whose values do not depend on the host's speed: speedup
#: ratios, fractions, counts and layer shares keep the tight budget and
#: stay gateable across environment changes
PORTABLE_UNITS = ("x", "ratio", "frac", SHARE, "count", "cycles", "ops",
                  "bytes")

#: absolute bounds on a series' median, whatever its history: a ceiling
#: for a lower-better series, a floor for a higher-better one
BOUNDS = {"paper-cold/trace.overhead_ratio": 1.5}


def default_budget(unit: str) -> float:
    """The relative budget a series in ``unit`` gates and drifts at."""
    if unit == SHARE:
        return SHARE_BUDGET
    return DEFAULT_BUDGET if unit in PORTABLE_UNITS \
        else DEFAULT_SECONDS_BUDGET


def noise_floor(unit: str) -> float:
    """The least noise a series in ``unit`` is credited with."""
    return SHARE_NOISE_FLOOR if unit == SHARE else NOISE_FLOOR_S


def mad(values: list[float]) -> float:
    """Median absolute deviation — the robust noise scale the gate uses."""
    if not values:
        return 0.0
    center = statistics.median(values)
    return statistics.median(abs(v - center) for v in values)


OK = "ok"
REGRESSION = "regression"
IMPROVEMENT = "improvement"
NO_BASELINE = "no-baseline"
ENV_MISMATCH = "env-mismatch"
BUDGET_FAIL = "budget-fail"

#: statuses that fail the gate
FAILING = (REGRESSION, BUDGET_FAIL)


@dataclass
class Verdict:
    """One series' comparison outcome."""

    bench: str
    status: str = OK
    new_median: float = 0.0
    base_median: float | None = None
    ratio: float | None = None
    layer: str | None = None
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status in FAILING


def compare_result(new, baseline: dict | None,
                   env_match: bool = True) -> Verdict:
    """Gate one fresh series against its stored baseline record.

    ``new`` is a :class:`~repro.obs.perf.results.Series`.
    ``baseline=None`` is the first run of a series: record it, never
    alarm.  ``env_match=False`` (the baseline was taken on a different
    machine) demotes absolute-unit series to informational — only
    dimensionless series stay gateable across environments.  The
    budget is the unit's (:func:`default_budget`).
    """
    budget = default_budget(new.unit)
    verdict = Verdict(bench=new.name, new_median=new.median)
    if baseline is None:
        verdict.status = NO_BASELINE
        verdict.detail = "first run for this series; record a baseline"
        return verdict
    if not env_match and new.unit not in PORTABLE_UNITS:
        verdict.status = ENV_MISMATCH
        verdict.base_median = baseline.get("median")
        verdict.detail = (
            "baseline was recorded on a different environment "
            f"({baseline.get('env_fingerprint')}); absolute "
            f"{new.unit} not gated")
        return verdict

    base_median = float(baseline.get("median", 0.0))
    base_mad = float(baseline.get("mad", 0.0))
    new_median = new.median
    noise = max(base_mad, noise_floor(new.unit))
    allowed = max(budget * abs(base_median), DEFAULT_MAD_K * noise)
    delta = new_median - base_median
    if new.direction == "higher":
        delta = -delta  # for hit fractions, going *down* is the regression

    verdict.base_median = base_median
    verdict.ratio = (new_median / base_median) if base_median else None
    if delta > allowed:
        verdict.status = REGRESSION
        verdict.layer = new.layer
        arrow = f"{base_median:.4g} -> {new_median:.4g} {new.unit}"
        verdict.detail = (
            (f"layer {new.layer!r}: " if new.layer else "")
            + f"median {arrow} exceeds allowance {allowed:.4g} "
            f"(budget {budget:.0%}, noise {noise:.4g})")
    elif -delta > allowed:
        verdict.status = IMPROVEMENT
        verdict.detail = (f"median {base_median:.4g} -> "
                          f"{new_median:.4g} {new.unit}; consider "
                          "re-recording the baseline")
    else:
        verdict.status = OK
        verdict.detail = (f"median {new_median:.4g} {new.unit} within "
                          f"{allowed:.4g} of baseline {base_median:.4g}")
    return verdict


def check_bound(series) -> str | None:
    """The :data:`BOUNDS` check of one series; a failure message or
    ``None``."""
    bound = BOUNDS.get(series.name)
    if bound is None:
        return None
    median = series.median
    if series.direction == "higher" and median < bound:
        return (f"{series.name}: median {median:.3f} {series.unit} "
                f"below its floor {bound:g}")
    if series.direction == "lower" and median > bound:
        return (f"{series.name}: median {median:.3f} {series.unit} "
                f"above its ceiling {bound:g}")
    return None


def gate(series: dict, history, env_key: str) -> list[Verdict]:
    """Every series of ``series`` against its latest baseline in
    ``history`` (a :class:`~repro.obs.perf.history.History`), then
    against its absolute bound; ``env_key`` is this host's fingerprint."""
    verdicts = []
    for s in series.values():
        baseline, env_match = history.baseline(s.name, s.config_hash,
                                               env_key)
        verdict = compare_result(s, baseline, env_match)
        bound_msg = check_bound(s)
        if bound_msg and not verdict.failed:
            verdict.status = BUDGET_FAIL
            verdict.detail = bound_msg
        verdicts.append(verdict)
    return verdicts


# ---------------------------------------------------------------------------
# drift over the stored trajectory


@dataclass
class TrendVerdict:
    """Cumulative-drift outcome for one stored series."""

    bench: str
    mode: str
    config_hash: str
    status: str
    points: int
    first_median: float | None = None
    last_median: float | None = None
    drift: float | None = None
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == REGRESSION

    def as_dict(self) -> dict:
        return {
            "bench": self.bench,
            "mode": self.mode,
            "config_hash": self.config_hash,
            "status": self.status,
            "points": self.points,
            "first_median": self.first_median,
            "last_median": self.last_median,
            "drift": (round(self.drift, 4)
                      if self.drift is not None else None),
            "detail": self.detail,
        }


def trend(records: list[dict], budget: float | None = None,
          mad_k: float = DEFAULT_MAD_K, window: int = 3) -> TrendVerdict:
    """Detect slow drift across one series' stored records (time order).

    The oldest and newest ``window`` medians are themselves medianed, so
    a single outlier record at either end cannot fake (or mask) a drift;
    the alarm uses the same budget-or-noise allowance as the step gate
    (per-unit default, like :func:`compare_result`), applied to the
    cumulative movement.
    """
    if not records:
        return TrendVerdict("?", "?", "?", NO_BASELINE, 0,
                            detail="empty series")
    head = records[0]
    if budget is None:
        budget = default_budget(head.get("unit", "s"))
    bench = head.get("bench", "?")
    verdict = TrendVerdict(
        bench=bench,
        mode=head.get("mode", "-"),
        config_hash=head.get("config_hash", "?"),
        status=OK,
        points=len(records),
    )
    medians = [float(r.get("median", 0.0)) for r in records]
    if len(records) < 2:
        verdict.status = NO_BASELINE
        verdict.detail = "need >= 2 records to measure drift"
        return verdict

    window = max(1, min(window, len(medians) // 2 or 1))
    first = statistics.median(medians[:window])
    last = statistics.median(medians[-window:])
    direction = head.get("direction", "lower")
    # run-to-run noise from consecutive differences (a steady drift has
    # near-constant steps, so it contributes ~nothing here — using the
    # spread of the medians themselves would let the drift inflate its
    # own allowance and mask itself), floored by the in-run MADs
    steps = [b - a for a, b in zip(medians, medians[1:])]
    noise = max(max(float(r.get("mad", 0.0)) for r in records),
                mad(steps), noise_floor(head.get("unit", "s")))
    allowed = max(budget * abs(first), mad_k * noise)
    delta = last - first
    if direction == "higher":
        delta = -delta

    verdict.first_median = first
    verdict.last_median = last
    verdict.drift = (last - first) / first if first else None
    if delta > allowed:
        verdict.status = REGRESSION
        verdict.detail = (
            f"cumulative drift {first:.3f} -> {last:.3f} over "
            f"{len(records)} records exceeds allowance {allowed:.3f} "
            f"(budget {budget:.0%}, noise {noise:.4f})")
    elif -delta > allowed:
        verdict.status = IMPROVEMENT
        verdict.detail = (f"series improved {first:.3f} -> {last:.3f} "
                          f"over {len(records)} records")
    else:
        verdict.detail = (f"drift {first:.3f} -> {last:.3f} within "
                          f"allowance {allowed:.3f}")
    return verdict
