"""gridpki benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload ocsp_steady --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The serving stack runs in a child process (see server.py) and the load
comes from this process over loopback, from at most as many threads and
connections as there are processors, and never more than two.

With --trace 0 the workload is set up SETUPS times (set-up time is their
median), run once for --seconds, and every end-to-end metric is printed.
With --trace 1 it runs for half of --seconds untraced and half traced,
each on a server of its own, prints the per-layer summary and the tracing
overhead (the traced half's p50 latency against the untraced one's),
and writes the span dump to perfbench/.work/trace-<workload>.jsonl.gz.
The last line of output is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import stats
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / ".work"
SETUPS = 5

NOT_MEASURED = (
    "real link latency and bandwidth: all traffic crosses loopback",
    "meter-class CPU: meters run as objects in one desktop-class process",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import cryptography

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "platform": platform.platform(),
        "transport": "TCP over loopback (127.0.0.1)",
        "server": "separate process, stdin/stdout control channel",
        "not_measured": list(NOT_MEASURED),
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _line(name, value, unit, note="") -> None:
    print(f"  {name:34s} {value:>14.6g} {unit:6s} {note}")


def end_to_end(workload, outcome, setups) -> dict:
    """Timings are first quartiles over the run's sub-windows, except the
    fleet's latencies, which are over its outage round; sizes are over the run."""
    windows = outcome.windows
    if not windows:
        raise RuntimeError("--seconds too short: the run holds no complete sub-window")
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "p50_ms": _metric(latency_ms(workload, outcome, 50), "ms"),
        "tail_ms": _metric(latency_ms(workload, outcome, workload.tail_q), "ms"),
        "server_cpu_us_per_op": _metric(server_cpu_us_per_op(workload, outcome), "us"),
        "server_maxrss_mb": _metric(outcome.server_maxrss_kb / 1024, "MB"),
        "bytes_per_op": _metric(outcome.tally.nbytes / max(outcome.tally.answered, 1), "bytes"),
    }


def windowed_latency_ms(windows, q) -> float:
    """The q-th latency percentile of each sub-window, first quartile over them."""
    return stats.low_quartile_over(windows, lambda w: stats.percentile(w.latency_s, q)) * 1000


def server_cpu_us_per_op(workload, outcome) -> float:
    """Server CPU per operation, first quartile over sub-windows.

    On fleet_outage it is the whole run's server CPU per answered check
    instead: its lightly loaded server's CPU per check in 1 s sub-windows
    swung between runs (a spread of 0.10 to 0.25 over ten seeds), and the
    whole run averages over the swings.
    """
    if workload.outage_round:
        (_start, cpu0), (_end, cpu1) = outcome.marks[0], outcome.marks[-1]
        return (cpu1 - cpu0) / max(outcome.tally.answered, 1) * 1e6
    return stats.low_quartile_over(outcome.windows, lambda w: w.server_cpu_s / w.ops * 1e6)


def latency_ms(workload, outcome, q) -> float:
    """The q-th latency percentile: over the outage round on fleet_outage,
    else windowed."""
    if workload.outage_round:
        return stats.percentile(outcome.round_latency_s, q) * 1000
    return windowed_latency_ms(outcome.windows, q)


# The names each end-to-end figure goes by for the workload it is read on.
WORKLOAD_NAMES = {
    "ocsp_steady": {"p50_ms": "ocsp_p50_ms", "tail_ms": "ocsp_p99_ms",
                    "ops_per_s": "ocsp_rps, first quartile over sub-windows",
                    "server_cpu_us_per_op": "server_cpu_us_per_req"},
    "fleet_outage": {"p50_ms": "check_p50_ms of the outage round",
                     "tail_ms": "check_p95_ms of the outage round",
                     "server_cpu_us_per_op": "whole run, per answered check",
                     "bytes_per_op": "bytes_per_check"},
    "revocation_churn": {"p50_ms": "ocsp_p50_ms", "tail_ms": "ocsp_p99_ms"},
}


def report_end_to_end(workload, outcome, metrics, setups) -> None:
    names = WORKLOAD_NAMES[workload.name]
    tally = outcome.tally
    windows = outcome.windows
    timings = ("latencies are over the outage round, other timings first quartiles"
               if workload.outage_round else "timings are first quartiles")
    print(f"end-to-end ({workload.name}, {len(windows)} sub-windows read;"
          f" {timings} over sub-windows):")
    for name, metric in metrics.items():
        note = names.get(name, "")
        if name in ("p50_ms", "tail_ms") and workload.outage_round:
            q = 50 if name == "p50_ms" else workload.tail_q
            note = (f"p{q:g} of n={len(outcome.round_latency_s)}"
                    f" over {outcome.round_s:.2f} s  {note}")
        elif name in ("p50_ms", "tail_ms"):
            q = 50 if name == "p50_ms" else workload.tail_q
            counts = "/".join(str(w.ops) for w in windows)
            note = f"p{q:g} of n={counts}  {note}"
        elif name == "setup_s":
            note = "median of " + ", ".join(f"{s:.3f}" for s in setups)
        _line(name, metric["value"], metric["unit"], note)
    _line("ops_per_s", stats.low_quartile_over(windows, lambda w: w.completed_per_s), "1/s",
          names.get("ops_per_s", "completed per second; the open loops fix the offered rate"))
    _line("fail_ratio", tally.failed / max(tally.attempted, 1), "",
          f"{tally.failed} of {tally.attempted} attempted")
    if tally.reasons:
        print("  failures:", dict(tally.reasons))
    late = outcome.recorder.late_s
    _line("driver.late_tail_ms", stats.percentile(late, workload.tail_q) * 1000, "ms",
          f"p{workload.tail_q:g} of n={len(late)}")
    _line("driver.cpu_s", outcome.driver_cpu_s, "s")
    if workload.name == "revocation_churn":
        vis = outcome.visibility_s
        for q in (50, 90):
            if stats.samples_beyond(len(vis), q) >= stats.MIN_BEYOND:
                _line(f"visibility_p{q}_s", stats.percentile(vis, q), "s",
                      f"n={len(vis)} of {outcome.revocations} revocations")
    if workload.outage_round:
        counts = "/".join(str(w.ops) for w in windows)
        _line("ocsp_check_p50_ms", windowed_latency_ms(windows, 50), "ms",
              f"p50 of n={counts}, checks OCSP answered, outside the outage")
    if tally.sources:
        print("  sources:", dict(tally.sources), "stale:", tally.stale)


@contextmanager
def collector_paused():
    """Keep this process's cyclic garbage collector off for a measured window.

    The load generator holds the CRL caches of up to thousands of meters,
    which no single meter would, and a full collection over them paused
    every simulated meter at once for up to about 140 ms.  Reference
    counting still frees everything that is not a cycle.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def run_plain(args, workload, inputs, key_pem, workloads, threads):
    setups = []
    stack = None
    try:
        for i in range(SETUPS):
            started = time.perf_counter()
            stack = workloads.set_up(workload, inputs, key_pem, SRC, WORKDIR)
            setups.append(time.perf_counter() - started)
            if i < SETUPS - 1:
                stack.server.stop()
                stack = None
        with collector_paused():
            outcome = workloads.RUNNERS[workload.name](stack, inputs, args.seconds, threads)
        stack.server.stop()
    finally:
        if stack is not None:
            stack.server.kill()
    metrics = end_to_end(workload, outcome, setups)
    report_end_to_end(workload, outcome, metrics, setups)
    return outcome.tally, metrics


def run_traced(args, workload, inputs, key_pem, workloads, threads):
    import layers  # imports gridpki, so only after main() has found it

    half = args.seconds / 2
    runner = workloads.RUNNERS[workload.name]

    stack = workloads.set_up(workload, inputs, key_pem, SRC, WORKDIR)
    try:
        with collector_paused():
            reference = runner(stack, inputs, half, threads)
        stack.server.stop()
    finally:
        stack.server.kill()

    trace_path = WORKDIR / f"trace-{workload.name}.jsonl.gz"
    trace_path.unlink(missing_ok=True)
    tracer = tracing.Tracer()
    layers.install_client(tracer, workloads, workloads.DRIVER_OPS)
    try:
        stack = workloads.set_up(workload, inputs, key_pem, SRC, WORKDIR,
                                 trace_path=trace_path)
        try:
            with collector_paused():
                traced = runner(stack, inputs, half, threads)
            final = stack.server.stop()
        finally:
            stack.server.kill()
    finally:
        tracer.unpatch_all()
    tracer.dump(trace_path, "bench")

    server_spans = tracing.load_spans(trace_path)["server"]
    server_counts = Counter(
        {(tuple(k) if isinstance(k, list) else k): v for k, v in final["counters"]}
    )
    metrics, detail = layers.per_layer(
        tracer.spans, server_spans, tracer.counters(), server_counts, traced.ops
    )
    tally = traced.tally
    for source in ("Ocsp", "CrlFetch", "CrlCache"):
        metrics[f"client.source.{source}"] = tally.sources[source]
        values = tally.check_ms.get(source, [])
        detail[f"client.check_ms.{source}"] = sum(values) / len(values) if values else None
    metrics["client.stale"] = tally.stale
    metrics["store.records"] = final["store"]["records"]
    metrics["driver.late_tail_ms"] = (
        stats.percentile(traced.recorder.late_s, workload.tail_q) * 1000
    )
    metrics["driver.cpu_s"] = traced.driver_cpu_s
    # The same p50 as the untraced end-to-end figure.
    untraced_p50 = latency_ms(workload, reference, 50)
    traced_p50 = latency_ms(workload, traced, 50)
    metrics["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1) * 100

    print(f"per-layer ({workload.name}, traced {half:g} s after {half:g} s untraced):")
    for name, unit in layers.UNITS.items():
        if metrics.get(name) is not None:
            _line(name, metrics[name], unit)
    for name, value in detail.items():
        if value is not None:
            _line(name, value, "", "(detail)")
    print(f"  p50 untraced {untraced_p50:.4f} ms, traced {traced_p50:.4f} ms")
    print(f"  spans written to {trace_path.relative_to(HERE.parent)}")

    missing = sorted(set(layers.UNITS) - set(metrics)) + sorted(
        name for name, value in metrics.items() if value is None
    )
    if missing:
        raise RuntimeError(f"per-layer metrics without samples: {', '.join(missing)}")
    combined = workloads.Tally()
    combined.merge(reference.tally)
    combined.merge(traced.tally)
    return combined, {name: _metric(metrics[name], unit) for name, unit in layers.UNITS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridpki" / "__init__.py").is_file():
        print(f"perfbench: no gridpki sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    threads = workloads.load_threads()
    env = environment()
    server_cpus, load_cpus = workloads.placement(workload)
    if load_cpus:
        os.sched_setaffinity(0, load_cpus)
    print("env:", json.dumps({**env, "server_cpus": server_cpus, "load_cpus": load_cpus}))
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s,"
          f" {threads} load threads")
    inputs = workloads.make_inputs(workload, args.seed)
    from gridpki import keys

    key_pem = keys.private_key_to_pem(keys.generate_private_key())
    run = run_traced if args.trace else run_plain
    tally, metrics = run(args, workload, inputs, key_pem, workloads, threads)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
