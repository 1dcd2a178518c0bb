"""The host-speed gauge: slowness over an interval, and its own cost."""

import signal
import time

from perfbench import clock
from perfbench.clock import Gauge


def _gauge(readings):
    """A gauge whose sample ``t`` was taken at time ``t`` and read
    ``readings[t]`` times the nominal reference time."""
    gauge = Gauge()
    gauge.samples = [(float(t), clock.NOMINAL_S * r)
                     for t, r in enumerate(readings)]
    return gauge


def test_slowness_is_the_mean_reading_inside_the_interval():
    gauge = _gauge([1, 1, 2, 2, 3, 3, 1, 1])
    # samples 1..5 read 1, 2, 2, 3, 3
    assert abs(gauge.slowness(1.0, 5.0) - 11 / 5) < 1e-9


def test_a_short_interval_borrows_the_nearest_samples():
    gauge = _gauge([t + 1 for t in range(10)])
    # nothing inside; the five nearest to 4.6 are samples 5, 4, 6, 3, 7
    assert abs(gauge.slowness(4.4, 4.8) - (6 + 5 + 7 + 4 + 8) / 5) < 1e-9


def test_no_samples_reads_nominal_speed():
    assert Gauge().slowness(0.0, 1.0) == 1.0


def test_interval_drops_the_gauges_own_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Gauge(period_s=0.01) as gauge:
        with gauge.interval() as interval:
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(gauge.samples) >= 5 and gauge.spent_s > 0
    # the busy loop took 0.3 s of wall time, the gauge's share included
    assert abs(interval.raw_s + gauge.spent_s - 0.3) < 0.05
    assert interval.slowness > 0
    assert interval.scaled_s == interval.raw_s / interval.slowness
