"""Percentile rule and load-loop timing of the benchmark helpers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 1001))
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.percentile(values, 99) == 990
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:999], 99)


def test_median_also_follows_the_rule():
    assert stats.percentile(list(range(20)), 50) == 9
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 50)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 80) == 4.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_open_loop_charges_a_stall_to_the_slots_it_delayed():
    clock = FakeClock()
    durations = [0.25, 0.01, 0.01, 0.01]

    def op(i):
        sent = clock()
        clock.now += durations[i]
        return sent, clock()

    recorder = stats.Recorder()
    stats.drive_open([0.0, 0.1, 0.2, 0.3], op, recorder, clock=clock, sleep=clock.sleep)
    assert recorder.late_s == pytest.approx([0.0, 0.15, 0.06, 0.0])
    assert recorder.latency_s == pytest.approx([0.25, 0.16, 0.07, 0.01])
    assert recorder.at_s == pytest.approx([0.0, 0.1, 0.2, 0.3])


def test_open_loop_does_not_time_failed_operations():
    clock = FakeClock()
    recorder = stats.Recorder()
    stats.drive_open([0.0, 0.5], lambda i: None if i == 0 else (clock(), clock() + 0.1),
                     recorder, clock=clock, sleep=clock.sleep)
    assert recorder.latency_s == pytest.approx([0.1])
    assert recorder.late_s == pytest.approx([0.0])


def test_closed_loop_times_the_exchange_and_keeps_driver_time_apart():
    recorder = stats.Recorder()
    recorder.record_closed(ready=1.0, sent=1.002, done=1.010)
    assert recorder.late_s == pytest.approx([0.002])
    assert recorder.latency_s == pytest.approx([0.008])


def test_schedule_slots_stop_before_the_end():
    loop = stats.OpenLoop(rate=10.0, start=5.0)
    slots = loop.slots(6.0)
    assert len(slots) == 10
    assert slots[0] == 5.0 and slots[-1] == pytest.approx(5.9)
    assert loop.slots(5.0) == []


def test_split_windows_buckets_by_start_and_by_completion():
    recorder = stats.Recorder()
    for due, latency in [(0.1, 0.05), (0.9, 0.3), (1.2, 0.1), (2.5, 0.1)]:
        recorder.record_open(due, due, due + latency)
    windows = stats.split_windows(recorder, [(0.0, 10.0), (1.0, 10.5), (2.0, 11.5)])
    assert [w.latency_s for w in windows] == [pytest.approx([0.05, 0.3]), pytest.approx([0.1])]
    assert [w.completed for w in windows] == [1, 2]
    assert [w.server_cpu_s for w in windows] == pytest.approx([0.5, 1.0])
    assert stats.low_quartile_over(windows, lambda w: w.ops) == 1


def test_low_quartile_ignores_slowed_sub_windows_up_to_three_quarters():
    windows = [1.0, 1.1, 1.2, 5.0, 5.5, 6.0, 6.5, 7.0]
    assert stats.low_quartile_over(windows, lambda w: w) == 1.1
    assert stats.low_quartile_over([3.0], lambda w: w) == 3.0
