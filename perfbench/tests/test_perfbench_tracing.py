"""Span recording and self-time computation of the benchmark's tracer."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402


def span(sid, parent, name, start, end):
    return (sid, parent, name, start, end, None, 0, tracing.OK)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, 0, "responder.handle", 0, 100),
        span(2, 1, "ocsp.decode_request", 10, 30),
        span(3, 1, "ocsp.build_response", 20, 50),  # overlaps the first child
        span(4, 1, "ocsp.encode_response", 90, 120),  # runs past the parent
        span(5, 3, "keys.sign", 25, 45),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 100 - 40 - 10, 2: 20, 3: 30 - 20, 4: 30, 5: 20}
    assert tracing.self_time_by_layer(spans) == {"responder": 50, "ocsp": 60, "keys": 20}


def test_covered_ns_merges_and_clips():
    assert tracing.covered_ns(0, 10, []) == 0
    assert tracing.covered_ns(0, 10, [(2, 4), (3, 6), (8, 20), (-5, 1)]) == 4 + 2 + 1


def test_patched_calls_nest_and_restore():
    ticks = iter(range(0, 1000, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    module = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    def outer(x):
        try:
            return module.inner(x)
        except ValueError:
            return module.inner(-x)

    module.inner = inner
    module.outer = outer
    tracer.patch(module, "inner", "lower.inner")
    tracer.patch(module, "outer", "upper.outer", size=lambda args, result: result)
    assert module.outer(-3) == 6
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[tracing.NAME], []).append(s)
    (root,) = by_name["upper.outer"]
    assert root[tracing.PARENT] == 0
    assert root[tracing.STATUS] == tracing.FELL_BACK
    assert root[tracing.SIZE] == 6
    statuses = sorted(s[tracing.STATUS] for s in by_name["lower.inner"])
    assert statuses == [tracing.OK, tracing.RAISED]
    assert all(s[tracing.PARENT] == root[tracing.SID] for s in by_name["lower.inner"])
    tracer.unpatch_all()
    assert module.inner is inner and module.outer is outer


def test_request_tag_reaches_open_and_later_spans_only():
    tracer = tracing.Tracer()
    module = types.SimpleNamespace(leaf=lambda: None)

    def root():
        module.leaf()
        tracer.tag_request("abc")
        module.leaf()

    module.root = root
    tracer.patch(module, "leaf", "x.leaf")
    tracer.patch(module, "root", "x.root")
    module.root()
    module.leaf()  # a new root: the tag does not carry over
    reqs = [(s[tracing.NAME], s[tracing.REQ]) for s in tracer.spans]
    assert reqs == [("x.leaf", None), ("x.leaf", "abc"), ("x.root", "abc"), ("x.leaf", None)]


def test_counter_wrapper_attributes_to_the_open_span(tmp_path):
    tracer = tracing.Tracer()
    module = types.SimpleNamespace(split=lambda data: (data[:1], data[1:]))

    def parse(data):
        while data:
            _head, data = module.split(data)

    module.parse = parse
    tracer.patch_counter(module, "split", lambda counter, frame, result: counter.update(
        {("calls", frame): 1}))
    tracer.patch(module, "parse", "crl.decode")
    module.parse(b"abcd")
    module.split(b"xy")
    assert tracer.counters() == {("calls", "crl.decode"): 4, ("calls", "-"): 1}
    path = tmp_path / "spans.jsonl.gz"
    tracer.dump(path, "bench")
    loaded = tracing.load_spans(path)
    assert [tuple(s) for s in loaded["bench"]] == tracer.spans


@pytest.mark.parametrize("name", ["ocsp.decode_request", "responder"])
def test_layer_is_the_part_before_the_first_dot(name):
    assert tracing.layer_of(name) == name.split(".")[0]
