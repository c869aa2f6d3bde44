"""Workload parameters that the figures depend on: cycle sizes, schedules, the outage round."""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
import workloads  # noqa: E402


def test_shortest_refresh_cycle_still_supports_p99():
    # The window opens just after a refresh is seen and the reads start
    # 0.05 s later; the next refresh is seen up to one poll late, which only
    # lengthens the window, so count without it.
    reads = int(workloads.CHURN_READ_RATE * (workloads.CHURN_MIN_CYCLE_S - 0.05))
    q = workloads.WORKLOADS["revocation_churn"].tail_q
    assert stats.samples_beyond(reads, q) >= stats.MIN_BEYOND
    stats.percentile([float(i) for i in range(reads)], q)


def test_shortest_refresh_cycle_is_the_jittered_wait_alone():
    assert workloads.CHURN_MIN_CYCLE_S == pytest.approx(1.8)


def test_meter_schedule_keeps_the_cadence_of_the_simulation():
    period = 20.0 / workloads.FLEET_CHECKS_PER_METER
    times = workloads.meter_schedule(random.Random(3), period, 20.0)
    assert len(times) in (29, 30, 31)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert min(gaps) >= period * (1 - 2 * workloads.FLEET_JITTER)
    assert max(gaps) <= period * (1 + 2 * workloads.FLEET_JITTER)
    assert times == workloads.meter_schedule(random.Random(3), period, 20.0)


def test_caught_up_is_the_first_on_time_send_after_the_earliest():
    recorder = stats.Recorder()
    # (due, sent): late through 2.0, on time at 2.5 and at 0.5.
    for due, sent in [(0.5, 0.5), (1.0, 1.4), (2.0, 2.2), (2.5, 2.5), (3.0, 3.0)]:
        recorder.record_open(due, sent, sent + 0.01)
    assert workloads.caught_up(recorder, 1.0, 10.0) == 2.5
    # Never on time before `until`: the whole span.
    assert workloads.caught_up(recorder, 1.0, 2.4) == 2.4


def test_outage_round_supports_its_tail_percentile():
    # The round is at least FLEET_ROUND_PERIODS periods long, one check per
    # meter each; allow for the meters whose jitter moves a check out.
    checks = workloads.FLEET_ROUND_PERIODS * workloads.FLEET_METERS - workloads.FLEET_METERS // 10
    q = workloads.WORKLOADS["fleet_outage"].tail_q
    assert stats.samples_beyond(checks, q) >= stats.MIN_BEYOND
