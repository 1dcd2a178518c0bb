"""Noise-aware regression gate against synthetic series."""

import statistics

from repro.obs.perf.regress import (
    ENV_MISMATCH,
    IMPROVEMENT,
    NO_BASELINE,
    OK,
    REGRESSION,
    compare_result,
    mad,
    trend,
)
from repro.obs.perf.results import Series


def _result(samples, unit="s", direction="lower", name="w/wall_s"):
    return Series(name=name, unit=unit, direction=direction,
                  samples=list(samples))


def _baseline(samples, env="e1", **extra):
    return {
        "bench": "w/wall_s", "median": statistics.median(samples),
        "mad": mad(samples), "samples": list(samples),
        "env_fingerprint": env, **extra,
    }


class TestStepGate:
    def test_flat_with_noise_does_not_alarm(self):
        # jitter well inside mad_k * MAD: no alarm on either side
        baseline = _baseline([1.00, 1.04, 0.97, 1.02, 0.99])
        verdict = compare_result(_result([1.03, 0.98, 1.05]), baseline)
        assert verdict.status == OK
        assert not verdict.failed

    def test_step_regression_alarms_and_blames_phase(self):
        baseline = _baseline([0.050, 0.051, 0.049])
        new = _result([0.060, 0.061, 0.060], unit="share",
                      name="paper-cold/sched.list_s")
        verdict = compare_result(new, baseline)
        assert verdict.status == REGRESSION and verdict.failed
        assert verdict.layer == "sched.list_s"
        assert "sched.list_s" in verdict.detail
        # an end-to-end series has no layer to name
        verdict = compare_result(_result([2.0, 2.0, 2.0]),
                                 _baseline([1.0, 1.0, 1.0]))
        assert verdict.status == REGRESSION and verdict.layer is None

    def test_missing_baseline_records_without_alarm(self):
        verdict = compare_result(_result([1.0]), None)
        assert verdict.status == NO_BASELINE
        assert not verdict.failed

    def test_improvement_is_flagged_not_failed(self):
        verdict = compare_result(_result([0.4, 0.4, 0.4]),
                                 _baseline([1.0, 1.0, 1.0]))
        assert verdict.status == IMPROVEMENT
        assert not verdict.failed

    def test_noisy_baseline_widens_the_allowance(self):
        # the same +20% step on a share (10% budget): a quiet baseline
        # alarms, a noisy one's mad_k * MAD swallows it
        step = _result([0.12, 0.12, 0.12], unit="share")
        quiet = compare_result(step, _baseline([0.1, 0.1, 0.1]))
        assert quiet.status == REGRESSION
        noisy = compare_result(step, _baseline([0.1, 0.07, 0.13, 0.08, 0.12]))
        assert noisy.status == OK

    def test_seconds_get_the_wide_default_budget(self):
        # +40% on an absolute-seconds series stays inside the 50%
        # gross-error budget (machine load moves raw seconds that much
        # run-to-run); the same move on a ratio series alarms at 25%
        seconds = compare_result(_result([1.4, 1.4, 1.4]),
                                 _baseline([1.0, 1.0, 1.0]))
        assert seconds.status == OK
        ratio = compare_result(
            _result([1.4, 1.4, 1.4], unit="ratio", direction="lower"),
            _baseline([1.0, 1.0, 1.0]))
        assert ratio.status == REGRESSION

    def test_ratio_regresses_downward(self):
        baseline = _baseline([4.0, 4.0, 4.1])
        verdict = compare_result(
            _result([2.0, 2.0, 2.1], unit="x", direction="higher"),
            baseline)
        assert verdict.status == REGRESSION
        # and going *up* is an improvement, not a regression
        verdict = compare_result(
            _result([8.0, 8.0, 8.1], unit="x", direction="higher"),
            baseline)
        assert verdict.status == IMPROVEMENT

    def test_env_mismatch_demotes_seconds_but_not_ratios(self):
        baseline = _baseline([1.0], env="other-env")
        seconds = compare_result(_result([5.0]), baseline, env_match=False)
        assert seconds.status == ENV_MISMATCH and not seconds.failed
        for unit in ("x", "ratio", "share", "frac", "count"):
            verdict = compare_result(
                _result([1.0], unit=unit, direction="higher"),
                _baseline([4.0], env="other-env"), env_match=False)
            assert verdict.status == REGRESSION, unit


class TestTrend:
    def _series(self, medians, mad_value=0.002, unit="x",
                direction="lower"):
        return [{"bench": "t.a", "mode": "quick", "config_hash": "c1",
                 "unit": unit, "direction": direction, "median": m,
                 "mad": mad_value, "samples": [m], "recorded_at": f"T{i}"}
                for i, m in enumerate(medians)]

    def test_slow_drift_alarms_on_cumulative_movement(self):
        # +2% per record: every step is inside the 25% budget, but the
        # cumulative 1.0 -> 1.4 walk is not
        medians = [1.0 + 0.02 * i for i in range(21)]
        for prev, cur in zip(medians, medians[1:]):
            step = compare_result(
                _result([cur], unit="x", direction="lower"),
                _baseline([prev]))
            assert step.status == OK  # the step gate never fires
        verdict = trend(self._series(medians))
        assert verdict.status == REGRESSION and verdict.failed
        assert verdict.drift > 0.25

    def test_drifting_fraction_gets_the_dimensionless_budget(self):
        # a hit fraction sliding 0.90 -> 0.60 (-33%) is past the 25%
        # dimensionless budget, though inside the 50% seconds budget
        medians = [0.90 - 0.015 * i for i in range(21)]
        for unit in ("frac", "ratio", "count", "share"):
            verdict = trend(self._series(medians, unit=unit,
                                         direction="higher"))
            assert verdict.status == REGRESSION, unit
        verdict = trend(self._series(medians, unit="s", direction="higher"))
        assert verdict.status == OK

    def test_flat_series_is_ok(self):
        verdict = trend(self._series([1.0, 1.01, 0.99, 1.0, 1.02]))
        assert verdict.status == OK

    def test_single_record_needs_more_data(self):
        verdict = trend(self._series([1.0]))
        assert verdict.status == NO_BASELINE and not verdict.failed

    def test_windowing_resists_endpoint_outliers(self):
        # one bad final record must not fake a drift: the newest-window
        # median absorbs it
        verdict = trend(self._series([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0]))
        assert verdict.status == OK

    def test_improving_series_reports_improvement(self):
        verdict = trend(self._series([2.0, 1.8, 1.5, 1.2, 1.0, 0.9]))
        assert verdict.status == IMPROVEMENT and not verdict.failed


class TestStatistics:
    def test_mad_is_robust_center_spread(self):
        assert mad([]) == 0.0
        assert mad([5.0, 5.0, 5.0]) == 0.0
        assert mad([1.0, 2.0, 3.0, 100.0]) == 1.0
