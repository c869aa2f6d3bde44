"""Tracing from outside the program, by wrapping public layer functions.

The program is not edited: a Tracer replaces a function or method with a
wrapper at the place the caller looks it up (``store.decode_crl_der`` for
the store's decode, not ``crl.decode_crl_der``), records one span per call
and restores the originals on `unpatch_all`.  Spans are kept in memory as
tuples and written out when the run ends.

A span is (id, parent, name, start_ns, end_ns, request, size, status).
`request` is the OCSP nonce in hex once a wrapper has seen it, which is how
a client-side exchange is matched with the server-side handling of the same
request.  `status` is OK, RAISED, or FELL_BACK (returned normally after a
nested span raised).  The layer of a span is the part of its name before
the first dot.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

OK, RAISED, FELL_BACK = 0, 1, 2

# Span tuple fields.
SID, PARENT, NAME, START, END, REQ, SIZE, STATUS = range(8)


class Tracer:
    """Collects spans and counters from every thread of one process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list = []
        self._counters_lock = threading.Lock()
        self._patches: list = []

    # -- per-thread state

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.req = None
            local.counter = Counter()
            with self._counters_lock:
                self._counters.append(local.counter)
        return local

    def count(self, key, n: int = 1) -> None:
        self._state().counter[key] += n

    def counters(self) -> Counter:
        total = Counter()
        with self._counters_lock:
            for counter in self._counters:
                total.update(counter)
        return total

    def tag_request(self, req) -> None:
        """Attach a request id to every open span of this thread and the next ones."""
        local = self._state()
        local.req = req
        for frame in local.stack:
            frame[4] = req

    # -- spans

    def call(self, name, fn, args, kwargs, size=None, on_result=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        local = self._state()
        stack = local.stack
        if not stack:
            local.req = None
        frame = [next(self._ids), stack[-1][0] if stack else 0, name,
                 self.clock(), local.req, 0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = self.clock()
            stack.pop()
            for outer in stack:
                outer[5] += 1
            self.spans.append(
                (frame[0], frame[1], name, frame[3], end, frame[4], 0, RAISED)
            )
            raise
        end = self.clock()
        stack.pop()
        nbytes = size(args, result) if size is not None else 0
        status = FELL_BACK if frame[5] else OK
        self.spans.append(
            (frame[0], frame[1], name, frame[3], end, frame[4], nbytes, status)
        )
        if on_result is not None:
            on_result(self, args, result)
        return result

    def wrap(self, fn, name, size=None, on_result=None):
        """A traced stand-in for fn; `name` may be a function of the call's args."""
        namer = name if callable(name) else (lambda _args, _name=name: _name)

        def traced(*args, **kwargs):
            return self.call(namer(args), fn, args, kwargs, size, on_result)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, size=None, on_result=None) -> None:
        """Replace owner.attr (a module function or class method) by a traced one."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, size, on_result))

    def patch_counter(self, owner, attr, count) -> None:
        """Replace owner.attr by a wrapper that only calls count(tracer, frame_name, result).

        For functions called so often that a span per call would swamp the
        work being measured, such as the DER element splitter.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        state = self._state

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            local = state()
            count(local.counter, local.stack[-1][2] if local.stack else "-", result)
            return result

        counted.__wrapped__ = original
        setattr(owner, attr, counted)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output

    def dump(self, path, process: str) -> None:
        """Append this process's spans to a gzip JSON-lines file."""
        with gzip.open(path, "at", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps([process, *span]) + "\n")


def load_spans(path) -> dict:
    """Read a dump back: {process: [span tuple, ...]}."""
    out: dict = defaultdict(list)
    with gzip.open(path, "rt", encoding="ascii") as handle:
        for line in handle:
            row = json.loads(line)
            out[row[0]].append(tuple(row[1:]))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if s < end and e > start
    )
    total = 0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_times(spans) -> dict:
    """{span id: self time in ns}: duration minus what its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[SID]: (span[END] - span[START])
        - covered_ns(span[START], span[END], children.get(span[SID], ()))
        for span in spans
    }


def self_time_by_layer(spans) -> dict:
    """{layer: total self time in ns} over one process's spans."""
    own = self_times(spans)
    totals: dict = defaultdict(int)
    for span in spans:
        totals[layer_of(span[NAME])] += own[span[SID]]
    return dict(totals)
