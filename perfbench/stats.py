"""Percentiles under a sample-count rule, sub-window figures, load-loop timing.

A percentile is reported only when at least MIN_BEYOND samples lie beyond
it, so a tail figure never rests on one or two outliers.  In an open loop
each operation is timed from when it was due on the fixed-rate schedule,
so a stall is charged to every operation it delayed; in a closed loop the
exchange itself is timed.  Either way, how late the driver sent each
operation (after its due time, or after the previous reply) is kept apart,
as the check that the load was offered as designed.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    if n < 1:
        return 0
    rank = max(1, math.ceil(q / 100.0 * n))
    return n - rank


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile of `values`.

    Raises TooFewSamples unless at least MIN_BEYOND samples lie beyond it.
    """
    n = len(values)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it, needs {MIN_BEYOND}"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * n)) - 1]


@dataclass
class Recorder:
    """Latency and driver lateness of the operations one thread ran."""

    at_s: list = field(default_factory=list)  # when each operation was due or sent
    latency_s: list = field(default_factory=list)
    late_s: list = field(default_factory=list)

    def record_open(self, due: float, sent: float, done: float) -> None:
        """Open loop: latency counts from the slot's due time."""
        self.at_s.append(due)
        self.late_s.append(max(0.0, sent - due))
        self.latency_s.append(done - due)

    def record_closed(self, ready: float, sent: float, done: float) -> None:
        """Closed loop: lateness is the driver's own time between replies."""
        self.at_s.append(sent)
        self.late_s.append(max(0.0, sent - ready))
        self.latency_s.append(done - sent)

    def merge(self, other: "Recorder") -> None:
        self.at_s.extend(other.at_s)
        self.latency_s.extend(other.latency_s)
        self.late_s.extend(other.late_s)


@dataclass
class Window:
    """One sub-window of a run: its bounds, server CPU spent, and its latencies."""

    start: float
    end: float
    server_cpu_s: float
    latency_s: list
    completed: int  # operations that finished inside the sub-window

    @property
    def ops(self) -> int:
        return len(self.latency_s)

    @property
    def completed_per_s(self) -> float:
        return self.completed / (self.end - self.start)


def split_windows(recorder: Recorder, marks) -> list:
    """Cut a run at `marks`, a list of (time, server CPU seconds) readings.

    Operations are assigned to the sub-window in which they were due (open
    loop) or sent (closed loop).
    """
    times = [t for t, _cpu in marks]
    buckets = [[] for _ in range(len(marks) - 1)]
    completed = [0] * len(buckets)
    for at, latency in zip(recorder.at_s, recorder.latency_s):
        i = bisect.bisect_right(times, at) - 1
        if 0 <= i < len(buckets):
            buckets[i].append(latency)
        i = bisect.bisect_right(times, at + latency) - 1
        if 0 <= i < len(buckets):
            completed[i] += 1
    return [
        Window(marks[i][0], marks[i + 1][0], marks[i + 1][1] - marks[i][1], buckets[i],
               completed[i])
        for i in range(len(buckets))
    ]


def low_quartile_over(windows, figure) -> float:
    """Nearest-rank first quartile over sub-windows of figure(window).

    Each sub-window is measured on its own.  Load from outside the
    benchmark only ever slows a sub-window down, and on a shared machine
    it can cover half of a run or more, which moves a median; the first
    quartile still reads the run's unhindered sub-windows as long as a
    quarter of them are.  A change to the program moves every sub-window,
    so it moves this figure too.
    """
    values = sorted(figure(w) for w in windows)
    return values[max(1, math.ceil(len(values) / 4)) - 1]


@dataclass(frozen=True)
class OpenLoop:
    """Fixed-rate schedule: operation k is due at start + k / rate."""

    rate: float
    start: float

    def due(self, k: int) -> float:
        return self.start + k / self.rate

    def slots(self, until: float) -> list:
        """Due times of every slot before `until`."""
        count = max(0, math.ceil((until - self.start) * self.rate))
        return [t for t in (self.due(k) for k in range(count)) if t < until]


def drive_open(dues, op, recorder: Recorder,
               clock=time.perf_counter, sleep=time.sleep) -> None:
    """Run op(i) for each due time dues[i], in order, never before it is due.

    `op(i)` returns (sent, done) clock readings for a timed operation, or
    None for one that is not timed (it failed, or it is not a read).  A slot
    reached late is sent at once, never skipped.
    """
    for i, due in enumerate(dues):
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        timing = op(i)
        if timing is not None:
            recorder.record_open(due, *timing)


def drive_closed(until: float, op, recorder: Recorder, clock=time.perf_counter) -> None:
    """Call op() back to back until `until`; op returns (sent, done) or None."""
    ready = clock()
    while ready < until:
        timing = op()
        if timing is not None:
            recorder.record_closed(ready, *timing)
        ready = clock()
