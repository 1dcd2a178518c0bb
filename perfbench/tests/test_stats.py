"""The percentile rule and failure counting."""

import pytest

from perfbench.stats import Tally, percentile, tail_percentile


def test_p95_needs_ten_samples_beyond_it():
    # at ~300 requests p95 leaves 15 beyond it and p99 only 3
    assert tail_percentile(308) == 95.0
    assert tail_percentile(200) == 95.0
    # 187 cells: p95 would leave 9.35 beyond, so fall back to p90
    assert tail_percentile(187) == 90.0
    assert tail_percentile(100) == 90.0


def test_too_few_samples_for_any_tail_is_refused():
    with pytest.raises(ValueError):
        tail_percentile(99)
    with pytest.raises(ValueError):
        tail_percentile(0)


def test_chosen_percentile_really_has_ten_beyond():
    for count in range(100, 400):
        pct = tail_percentile(count)
        values = list(range(count))
        beyond = sum(1 for v in values if v > percentile(values, pct))
        assert beyond >= 10, (count, pct, beyond)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0


def test_fail_frac_counts_refused_timed_out_and_mismatching_units():
    tally = Tally()
    for outcome in ("ok", "overloaded", "ok", "timeout",
                    "summary digest mismatch r/a/16", "ok", "trap", "ok"):
        tally.add(outcome)
    assert tally.attempted == 8
    assert tally.failed == 4
    assert tally.fail_frac == 0.5
    assert tally.pass_frac == 0.5
    assert tally.reasons["overloaded"] == 1
    assert tally.reasons["timeout"] == 1


def test_lost_units_count_as_failed_not_dropped():
    tally = Tally()
    tally.add()
    tally.add_lost(9, "pass raised AssertionError")
    assert (tally.attempted, tally.failed) == (10, 9)
    merged = Tally()
    merged.merge(tally)
    merged.add()
    assert (merged.attempted, merged.failed) == (11, 9)


def test_nothing_attempted_is_not_a_pass():
    assert Tally().fail_frac == 1.0
