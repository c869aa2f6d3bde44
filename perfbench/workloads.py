"""The three workloads: inputs from the seed, the load, and the answer checks.

* ocsp_steady -- closed loop, one kept-alive connection per load thread,
  single-CertID requests with a fresh nonce against a 10k-entry list, half
  of the serials revoked.  No refresh runs, so only the responder's read
  path (request decode, lookup, response encode, RSA signing, HTTP) is on
  the result path.
* fleet_outage -- the outage scenario of gridpki's own fleet simulation
  (`sim.SimConfig` defaults and scripts/run_outage_sim.py: 100 meters,
  each checking every 2 s, 60 s, OCSP refused over [20 s, 40 s), a CRL
  cached for 30 s), compressed in time to the run: every meter checks 30
  times per run on its own seeded cadence, the OCSP listener is paused
  over the middle third of the run, and a fetched CRL is cached for half
  of it.  Meters are independent `client.HybridClient`s (default policy)
  against a 2k-entry list, so single checks go to OCSP; a small seeded
  share of checks are two-serial `check_many` batches.  When the outage
  starts every meter falls back to a CRL download once and then answers
  from its cache.  This is the only workload that runs the client's
  protocol choice, fallback chain and CRL fetch/decode/verify.
* revocation_churn -- a 20k-entry list whose store refreshes every 2 s
  with seeded jitter, while the load threads revoke new serials at a fixed
  rate through the serving ledger and read at a fixed rate over OCSP;
  the reads include polls of every newly revoked serial until it answers
  Revoked.  CRL issue/encode, DER decode and store refresh sit on the
  result path here, and compete with the reads for the server's CPU.

Every answer is compared with the ledger the benchmark built.  A failure
is counted, never raised.
"""

from __future__ import annotations

import heapq
import os
import random
import resource
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from gridpki import client, crl, keys, ocsp, store, wire
from gridpki.responder import REQUEST_CONTENT_TYPE
from gridpki.store import CertStatus

import stats
from server import ServerProcess

# Disjoint serial ranges: the set-up ledger, serials never revoked, and the
# serials revocation_churn revokes while it runs.
LEDGER_RANGE = (1 << 56, 1 << 64)
GOOD_RANGE = (1 << 48, 1 << 56)
FRESH_RANGE = (1 << 40, 1 << 48)

OCSP_HEADERS = [("Content-Type", REQUEST_CONTENT_TYPE)]
NONCE_OCTETS = ocsp.DEFAULT_NONCE_OCTETS
# Share of raw OCSP replies whose signature and nonce the driver verifies.
VERIFY_SHARE = 1 / 16
# Closed-loop warm-up before the measured window (connections, caches).
WARMUP_S = 0.5
QUERY_SET = 4096

STEADY_LIST = 10_000

FLEET_LIST = 2_000
# The fleet of gridpki.sim.SimConfig: 100 meters at 0.5 checks/s for 60 s,
# 30 checks per meter, with a ±5 % jitter on each check (sim._meter_schedule).
# The benchmark runs twice as many meters, 300 checks/s over a 20 s run.
# With 100 meters the outage round held few fallbacks and its p50 ranged
# from 76 to 106 ms over four seeds; with 200, from 808 to 958 ms.
FLEET_METERS = 200
FLEET_CHECKS_PER_METER = 30
FLEET_JITTER = 0.05
# scripts/run_outage_sim.py: OCSP refused over [20 s, 40 s) of 60 s.
FLEET_OUTAGE = (1 / 3, 2 / 3)
# SimConfig.crl_ttl_s: 30 s of 60 s.
FLEET_CRL_TTL = 1 / 2
# The simulation has no batches; a fixed share of them makes check_many
# run too.  One slot in a hundred (no source gives a share) keeps single
# checks the rule: each batch downloads the CRL and caches it.
FLEET_BATCH_EVERY = 100
FLEET_BATCH_SIZE = 2
# The outage round: the first FLEET_ROUND_PERIODS check periods of the
# outage, or longer, until every load thread sends on time again.
FLEET_ROUND_PERIODS = 3
CAUGHT_UP_S = 0.001
# A sub-window is read for the OCSP-path figures only when it holds at least
# this share of a full sub-window's checks; the others are outage or cache.
FLEET_WINDOW_SHARE = 2 / 3

CHURN_LIST = 20_000
CHURN_REFRESH_S = 2.0
# A sub-window is one refresh cycle: the store's jittered wait plus the
# refresh itself.  The wait alone is at least this long, however fast a
# refresh becomes.
CHURN_MIN_CYCLE_S = CHURN_REFRESH_S * (1 - store.DEFAULT_JITTER_FRACTION)
# Reads per second, well below ocsp_steady's closed-loop capacity (about
# 5k/s) and fast enough that the shortest cycle holds the 1000 reads a p99
# needs (see tests/test_perfbench_workloads.py); no source gives a rate.
CHURN_READ_RATE = 650.0
# Revocations per second; no source gives one either.  At this rate a
# 20 s run revokes over 150 serials, enough for a visibility p90.
CHURN_REVOKE_RATE = 12.0
CHURN_POLL_EVERY_S = 0.1
REFRESH_POLL_S = 0.01
# A revocation still not visible after this many refresh intervals failed.
CHURN_VISIBLE_WITHIN = 2


@dataclass(frozen=True)
class Workload:
    name: str
    list_size: int
    refresh_interval_s: float
    start_refresh: bool
    tail_q: float  # the tail percentile reported as tail_ms
    subwindow_s: float  # sub-window length; 0 means one store refresh cycle
    pinned: bool  # server and load generator share one processor
    outage_round: bool = False  # p50_ms and tail_ms are read on the outage round


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ocsp_steady", STEADY_LIST, 3600.0, False, 99.0, 1.0, False),
        Workload("fleet_outage", FLEET_LIST, 3600.0, False, 95.0, 1.0, True, True),
        Workload("revocation_churn", CHURN_LIST, CHURN_REFRESH_S, True, 99.0, 0.0, False),
    )
}


@dataclass
class Inputs:
    """Everything a run uses, drawn from the seed alone."""

    seed: int
    revoked: list
    good: list
    fresh: list
    jitter_seed: int

    def expected(self, serial: int) -> CertStatus:
        return CertStatus.REVOKED if serial in self._revoked_set else CertStatus.GOOD

    def __post_init__(self):
        self._revoked_set = frozenset(self.revoked)


def _distinct(rng: random.Random, n: int, bounds) -> list:
    drawn: set = set()
    while len(drawn) < n:
        drawn.add(rng.randrange(*bounds))
    out = sorted(drawn)
    rng.shuffle(out)
    return out


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{workload.name}:{seed}")
    fresh = _distinct(rng, 4096, FRESH_RANGE) if workload.name == "revocation_churn" else []
    return Inputs(
        seed=seed,
        revoked=_distinct(rng, workload.list_size, LEDGER_RANGE),
        good=_distinct(rng, QUERY_SET, GOOD_RANGE),
        fresh=fresh,
        jitter_seed=rng.getrandbits(64),
    )


@dataclass
class Stack:
    """A running server process plus what a client needs to talk to it."""

    server: ServerProcess
    issuer: crl.DistinguishedName
    public_key: object
    hashes: ocsp.IssuerHashes
    endpoints: client.Endpoints
    meters: list

    @property
    def ocsp_address(self) -> tuple:
        host, port, _path = wire.split_url(self.endpoints.ocsp_url)
        return host, port


def set_up(workload: Workload, inputs: Inputs, key_pem: bytes, src, workdir,
           trace_path=None) -> Stack:
    """Start the server process and build the client side."""
    server = ServerProcess(
        src, workdir,
        key_pem=key_pem,
        cpus=placement(workload)[0],
        revoked=inputs.revoked,
        refresh_interval_s=workload.refresh_interval_s,
        start_refresh=workload.start_refresh,
        jitter_seed=inputs.jitter_seed,
        trace_path=trace_path,
    )
    try:
        info = server.info
        issuer = crl.DistinguishedName.parse(info["issuer"])
        public_key = keys.public_key_from_pem(info["public_key_pem"])
        endpoints = client.Endpoints(info["ocsp_url"], info["crl_der_url"], info["crl_pem_url"])
        meters = []
        if workload.name == "fleet_outage":
            meters = [
                client.HybridClient(endpoints, issuer, public_key)
                for _ in range(FLEET_METERS)
            ]
        return Stack(server, issuer, public_key, ocsp.IssuerHashes(issuer, public_key),
                     endpoints, meters)
    except BaseException:
        server.kill()
        raise


# --- results ------------------------------------------------------------------


@dataclass
class Tally:
    """Attempted and failed operations of one thread, with failure reasons."""

    attempted: int = 0
    failed: int = 0
    answered: int = 0
    nbytes: int = 0
    reasons: Counter = field(default_factory=Counter)
    sources: Counter = field(default_factory=Counter)
    check_ms: dict = field(default_factory=lambda: defaultdict(list))
    stale: int = 0

    def ok(self, nbytes: int) -> None:
        self.attempted += 1
        self.answered += 1
        self.nbytes += nbytes

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.answered += other.answered
        self.nbytes += other.nbytes
        self.reasons.update(other.reasons)
        self.sources.update(other.sources)
        for source, values in other.check_ms.items():
            self.check_ms[source].extend(values)
        self.stale += other.stale


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    recorder: stats.Recorder
    tally: Tally
    # (time, server CPU seconds) at each sub-window boundary of the window.
    marks: list
    server_maxrss_kb: int
    driver_cpu_s: float
    visibility_s: list = field(default_factory=list)
    revocations: int = 0
    # The operations the sub-window figures are read on, when not all of
    # them, and the fewest a sub-window must hold to be read.
    windowed: stats.Recorder | None = None
    min_window_ops: float = 0
    # fleet_outage: latencies of the checks of the outage round, and its length.
    round_latency_s: list = field(default_factory=list)
    round_s: float = 0.0

    @property
    def windows(self) -> list:
        windows = stats.split_windows(
            self.recorder if self.windowed is None else self.windowed, self.marks)
        return [w for w in windows if w.ops >= self.min_window_ops]

    @property
    def ops(self) -> int:
        return len(self.recorder.latency_s)


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _start(targets) -> list:
    threads = [threading.Thread(target=t, name=f"load-{i}") for i, t in enumerate(targets)]
    for thread in threads:
        thread.start()
    return threads


def _sleep_until(when: float) -> None:
    delay = when - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _control(stack: Stack, t0: float, seconds: float, subwindow_s: float,
             actions=()) -> list:
    """Main-thread timeline: sub-window marks plus any control `actions`.

    The main thread offers no load.  It reads the server's CPU time at
    every sub-window boundary of [t0, t0 + seconds] and runs each
    (time, action) at its time.  Returns the marks.
    """
    count = max(1, round(seconds / subwindow_s))
    bounds = [t0 + seconds * i / count for i in range(count + 1)]
    timeline = sorted([(t, None) for t in bounds] + list(actions), key=lambda e: e[0])
    marks = []
    for when, action in timeline:
        _sleep_until(when)
        if action is None:
            marks.append((when, stack.server.usage()["cpu_s"]))
        else:
            action()
    return marks


def _finish(stack, threads, tallies, recorders, marks, driver_cpu0, **extra) -> Outcome:
    for thread in threads:
        thread.join()
    driver_cpu = _cpu_self() - driver_cpu0
    recorder, tally = stats.Recorder(), Tally()
    for r in recorders:
        recorder.merge(r)
    for t in tallies:
        tally.merge(t)
    return Outcome(
        recorder=recorder,
        tally=tally,
        marks=marks,
        server_maxrss_kb=stack.server.usage()["maxrss_kb"],
        driver_cpu_s=driver_cpu,
        **extra,
    )


# --- driver operations (each becomes a driver.op span when traced) ------------


def ocsp_query(conn, hashes, public_key, serial, nonce, verify):
    """One OCSP exchange on a kept-alive connection.

    Returns (status or a failure reason, bytes, sent, done); the status is
    a CertStatus only when the reply is a well-formed, successful answer
    for the serial (and, when `verify`, signed by the CA and echoing the
    nonce).
    """
    body = ocsp.encode_ocsp_request(ocsp.OcspRequest((hashes.cert_id(serial),), nonce))
    sent = time.perf_counter()
    try:
        reply = conn.request("POST", "/", headers=OCSP_HEADERS, body=body)
    except wire.TransportError:
        return "transport", 0, sent, time.perf_counter()
    done = time.perf_counter()
    if reply.status != 200:
        return f"http-{reply.status}", reply.total_bytes, sent, done
    try:
        response = ocsp.decode_ocsp_response(reply.body)
    except ocsp.MalformedOcsp:
        return "malformed", reply.total_bytes, sent, done
    if response.response_status is not ocsp.ResponseStatus.SUCCESSFUL:
        return response.response_status.name, reply.total_bytes, sent, done
    single = response.result_for(serial)
    if single is None:
        return "no-answer", reply.total_bytes, sent, done
    if verify:
        if response.nonce != nonce:
            return "nonce", reply.total_bytes, sent, done
        if not ocsp.verify_ocsp_response(response, public_key):
            return "signature", reply.total_bytes, sent, done
    return single.status.status, reply.total_bytes, sent, done


def meter_check(meter, serials):
    """One meter resolves one serial (check) or a batch (check_many).

    Returns (results or a failure reason, sent, done).
    """
    sent = time.perf_counter()
    try:
        if len(serials) == 1:
            results = [meter.check(serials[0])]
        else:
            results = meter.check_many(serials)
    except Exception as exc:  # every way a check can fail is counted, not raised
        return type(exc).__name__, sent, time.perf_counter()
    return results, sent, time.perf_counter()


DRIVER_OPS = ("ocsp_query", "meter_check")


# --- ocsp_steady ----------------------------------------------------------------


def run_ocsp_steady(stack: Stack, inputs: Inputs, seconds: float, n_threads: int) -> Outcome:
    rng = random.Random(f"queries:{inputs.seed}")
    half = QUERY_SET // 2
    queries = [(s, CertStatus.REVOKED) for s in rng.sample(inputs.revoked, half)]
    queries += [(s, CertStatus.GOOD) for s in inputs.good[:half]]
    host, port = stack.ocsp_address
    t0 = time.perf_counter() + WARMUP_S
    t_end = t0 + seconds
    recorders = [stats.Recorder() for _ in range(n_threads)]
    tallies = [Tally() for _ in range(n_threads)]

    def worker(index):
        thread_rng = random.Random(f"steady:{inputs.seed}:{index}")
        tally = tallies[index]

        def op():
            serial, expected = queries[thread_rng.randrange(len(queries))]
            nonce = thread_rng.randbytes(NONCE_OCTETS)
            verify = thread_rng.random() < VERIFY_SHARE
            got, nbytes, sent, done = ocsp_query(
                conn, stack.hashes, stack.public_key, serial, nonce, verify
            )
            if got is expected:
                tally.ok(nbytes)
                return sent, done
            tally.fail(f"wrong-{got.value}" if isinstance(got, CertStatus) else got)
            return None

        with wire.HttpConnection(host, port) as conn:
            stats.drive_closed(t0, op, stats.Recorder())
            tally.answered = tally.nbytes = 0
            stats.drive_closed(t_end, op, recorders[index])

    driver_cpu0 = _cpu_self()
    threads = _start([lambda i=i: worker(i) for i in range(n_threads)])
    marks = _control(stack, t0, seconds, WORKLOADS["ocsp_steady"].subwindow_s)
    return _finish(stack, threads, tallies, recorders, marks, driver_cpu0)


# --- fleet_outage ---------------------------------------------------------------


def meter_schedule(rng: random.Random, period: float, until: float) -> list:
    """One meter's check times in [0, until): a fixed cadence from a seeded
    phase, each check moved by up to FLEET_JITTER of a period, as
    gridpki.sim schedules its meters."""
    phase = rng.uniform(0.0, period)
    times = []
    k = 0
    while True:
        t = phase + k * period + rng.uniform(-FLEET_JITTER, FLEET_JITTER) * period
        if t >= until:
            return times
        times.append(max(0.0, t))
        k += 1


def caught_up(recorder: stats.Recorder, earliest: float, until: float) -> float:
    """The first due time in [earliest, until) of a check sent on time, else `until`."""
    for at, late in sorted(zip(recorder.at_s, recorder.late_s)):
        if earliest <= at < until and late < CAUGHT_UP_S:
            return at
    return until


def run_fleet_outage(stack: Stack, inputs: Inputs, seconds: float, n_threads: int) -> Outcome:
    rng = random.Random(f"fleet:{inputs.seed}")
    period = seconds / FLEET_CHECKS_PER_METER
    for meter in stack.meters:
        meter.crl_ttl_s = FLEET_CRL_TTL * seconds
    t0 = time.perf_counter() + 0.2
    pause, resume = (t0 + share * seconds for share in FLEET_OUTAGE)
    slots = sorted(
        (t0 + t, m)
        for m in range(len(stack.meters))
        for t in meter_schedule(rng, period, seconds)
    )
    # Batches fall on every BATCH_EVERY-th slot from a seeded offset.
    offset = rng.randrange(FLEET_BATCH_EVERY)

    def pick():
        # Half revoked, half good, whatever the list size.
        return rng.choice(inputs.revoked) if rng.random() < 0.5 else rng.choice(inputs.good)

    plan = [
        (due, m, [pick() for _ in range(FLEET_BATCH_SIZE if k % FLEET_BATCH_EVERY == offset
                                        else 1)])
        for k, (due, m) in enumerate(slots)
    ]
    recorders = [stats.Recorder() for _ in range(n_threads)]
    ocsp_recorders = [stats.Recorder() for _ in range(n_threads)]
    tallies = [Tally() for _ in range(n_threads)]

    def worker(index):
        tally = tallies[index]
        # Each thread runs the checks of its own meters, so no meter is ever
        # used by two threads at once.
        mine = [slot for slot in plan if slot[1] % n_threads == index]

        def op(i):
            due, meter_index, serials = mine[i]
            got, sent, done = meter_check(stack.meters[meter_index], serials)
            if isinstance(got, str):
                for _ in serials:
                    tally.fail(got)
                return None
            wrong = False
            for serial, result in zip(serials, got):
                if result.status.status is inputs.expected(serial):
                    tally.ok(result.bytes_used)
                    tally.sources[result.source.value] += 1
                    tally.check_ms[result.source.value].append(result.latency_ms)
                    tally.stale += result.stale
                else:
                    tally.fail(f"wrong-{result.status.status.value}")
                    wrong = True
            if wrong:
                return None
            if all(result.source is client.Source.OCSP for result in got):
                for _ in serials:
                    ocsp_recorders[index].record_open(due, sent, done)
            # Every serial of a batch waited for the whole call.
            for _ in serials[1:]:
                recorders[index].record_open(due, sent, done)
            return sent, done

        stats.drive_open([slot[0] for slot in mine], op, recorders[index])

    driver_cpu0 = _cpu_self()
    threads = _start([lambda i=i: worker(i) for i in range(n_threads)])
    subwindow_s = WORKLOADS["fleet_outage"].subwindow_s
    marks = _control(stack, t0, seconds, subwindow_s,
                     [(pause, stack.server.pause), (resume, stack.server.resume)])
    outcome = _finish(stack, threads, tallies, recorders, marks, driver_cpu0)
    # The outage round: every check due from the pause until each load
    # thread sends on time again, and for at least FLEET_ROUND_PERIODS check
    # periods, so it holds every meter's fallback and the backlog behind it.
    round_end = max(caught_up(r, pause + FLEET_ROUND_PERIODS * period, resume)
                    for r in recorders)
    outcome.round_latency_s = [
        latency
        for at, latency in zip(outcome.recorder.at_s, outcome.recorder.latency_s)
        if pause <= at < round_end
    ]
    outcome.round_s = round_end - pause
    windowed = stats.Recorder()
    for r in ocsp_recorders:
        windowed.merge(r)
    outcome.windowed = windowed
    outcome.min_window_ops = FLEET_WINDOW_SHARE * len(stack.meters) / period * subwindow_s
    return outcome


# --- revocation_churn -------------------------------------------------------------


def _next_refresh(stack: Stack, until: float):
    """(time, server CPU) as the store's next refresh completes, or None by `until`.

    Polls the server's refresh count from the main thread; the control
    channel carries one command at a time, so a blocking wait would hold
    up the revocations the load threads send on it.
    """
    seen = stack.server.usage()["refreshes"]
    while True:
        time.sleep(REFRESH_POLL_S)
        now = time.perf_counter()
        if now >= until:
            return None
        usage = stack.server.usage()
        if usage["refreshes"] != seen:
            return now, usage["cpu_s"]


class _Pending:
    """Newly revoked serials waiting to answer Revoked, polled in turn."""

    def __init__(self, deadline_s: float):
        self.deadline_s = deadline_s
        self._lock = threading.Lock()
        self._heap: list = []  # (next poll, serial)
        self._acked: dict = {}
        self.visible_s: list = []

    def add(self, serial: int, acked: float) -> None:
        with self._lock:
            self._acked[serial] = acked
            heapq.heappush(self._heap, (acked + CHURN_POLL_EVERY_S, serial))

    def due(self, now: float):
        """The serial whose poll is due, if any; it is re-queued for later."""
        with self._lock:
            if not self._heap or self._heap[0][0] > now:
                return None
            _next, serial = heapq.heappop(self._heap)
            heapq.heappush(self._heap, (now + CHURN_POLL_EVERY_S, serial))
            return serial

    def observe(self, serial: int, status, done: float) -> bool:
        """Record one poll answer; False once the serial is overdue."""
        with self._lock:
            acked = self._acked.get(serial)
            if acked is None:
                return True  # already resolved by the other thread
            if status is CertStatus.REVOKED:
                self.visible_s.append(done - acked)
                self._drop(serial)
                return True
            if done - acked > self.deadline_s:
                self._drop(serial)
                return False
            return True

    def _drop(self, serial: int) -> None:
        del self._acked[serial]
        self._heap = [(t, s) for t, s in self._heap if s != serial]
        heapq.heapify(self._heap)

    def outstanding(self) -> int:
        with self._lock:
            return len(self._acked)


def run_revocation_churn(stack: Stack, inputs: Inputs, seconds: float,
                         n_threads: int) -> Outcome:
    deadline = CHURN_VISIBLE_WITHIN * CHURN_REFRESH_S
    # The window opens as a refresh completes and is cut at every later
    # one, so each sub-window is one refresh cycle.
    first = _next_refresh(stack, time.perf_counter() + 5 * CHURN_REFRESH_S)
    if first is None:
        raise RuntimeError("the store did not refresh within five intervals")
    marks = [first]
    t0 = first[0] + 0.05
    t_end = t0 + seconds
    # Revocations stop early enough for every one to be judged in the run.
    revoke_dues = stats.OpenLoop(CHURN_REVOKE_RATE, t0 + 0.25).slots(t_end - deadline - 0.5)
    read_dues = stats.OpenLoop(CHURN_READ_RATE, t0).slots(t_end)
    events = sorted([(t, "read") for t in read_dues] + [(t, "revoke") for t in revoke_dues])
    fresh = iter(inputs.fresh)
    pending = _Pending(deadline)
    host, port = stack.ocsp_address
    recorders = [stats.Recorder() for _ in range(n_threads)]
    tallies = [Tally() for _ in range(n_threads)]
    revocations = [0] * n_threads
    lock = threading.Lock()

    def worker(index):
        rng = random.Random(f"churn:{inputs.seed}:{index}")
        tally = tallies[index]
        mine = events[index::n_threads]

        def op(i):
            _due, kind = mine[i]
            if kind == "revoke":
                with lock:
                    serial = next(fresh)
                try:
                    stack.server.revoke(serial)
                except Exception as exc:  # counted as a failed write
                    tally.fail(f"revoke-{type(exc).__name__}")
                    return None
                pending.add(serial, time.perf_counter())
                revocations[index] += 1
                return None
            serial = pending.due(time.perf_counter())
            polled = serial is not None
            if not polled:
                pool = inputs.revoked if rng.random() < 0.5 else inputs.good
                serial = pool[rng.randrange(len(pool))]
            nonce = rng.randbytes(NONCE_OCTETS)
            verify = rng.random() < VERIFY_SHARE
            got, nbytes, sent, done = ocsp_query(
                conn, stack.hashes, stack.public_key, serial, nonce, verify
            )
            if not isinstance(got, CertStatus):
                tally.fail(got)
                return None
            if polled:
                if not pending.observe(serial, got, done):
                    tally.fail("not-visible")
                    return None
            elif got is not inputs.expected(serial):
                tally.fail(f"wrong-{got.value}")
                return None
            tally.ok(nbytes)
            return sent, done

        with wire.HttpConnection(host, port) as conn:
            stats.drive_open([t for t, _kind in mine], op, recorders[index])

    driver_cpu0 = _cpu_self()
    threads = _start([lambda i=i: worker(i) for i in range(n_threads)])
    while True:
        mark = _next_refresh(stack, t_end)
        if mark is None:
            break
        marks.append(mark)
    outcome = _finish(stack, threads, tallies, recorders, marks, driver_cpu0,
                      revocations=sum(revocations))
    outcome.tally.attempted += outcome.revocations
    unresolved = pending.outstanding()
    if unresolved:
        outcome.tally.failed += unresolved
        outcome.tally.reasons["unresolved-at-end"] += unresolved
    outcome.visibility_s = sorted(pending.visible_s)
    return outcome


RUNNERS = {
    "ocsp_steady": run_ocsp_steady,
    "fleet_outage": run_fleet_outage,
    "revocation_churn": run_revocation_churn,
}


def load_threads() -> int:
    """Load threads (and connections) never exceed the processors available."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def placement(workload: Workload):
    """(server CPUs, load-generator CPUs) for a pinned workload, else (None, None).

    fleet_outage opens a fresh connection per check, and each check wakes
    a thread in the other process at every hop.  On one shared processor
    every such wake-up is local; across two processors each one is an
    interrupt to the other, whose cost on a shared virtual machine swung
    the fleet's p50 between runs (0.98 to 1.52 ms over four seeds, against
    0.78 to 1.01 ms shared, run alternately), and unpinned the server CPU
    per check swung most.  The other workloads are not
    pinned: pinning revocation_churn's server to one processor changes
    what it measures, since reads stop queueing behind a refresh's decode
    and the refresh slows instead.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if not workload.pinned or len(cpus) < 2:
        return None, None
    return cpus[-1:], cpus[-1:]

