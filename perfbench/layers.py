"""Which public gridpki functions the traced run wraps, and the per-layer summary.

Each wrapper is installed where its caller looks the name up.  The layer
of a span is the module whose work it times; `responder.handle` is
`ocsp.OcspResponder.handle`, the entry point the HTTP front end calls.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from gridpki import ca, client, crl, der, keys, ocsp, store, wire

from tracing import (
    END, FELL_BACK, NAME, PARENT, RAISED, REQ, SID, SIZE, START, STATUS, self_time_by_layer,
    self_times,
)

# Layers whose self time is reported; each has spans on every workload.
LAYERS_REPORTED = ("keys", "ocsp", "responder", "crl", "ca", "store", "wire", "driver")

# Every per-layer metric the traced run reports, with its unit.  Each has a
# value on every workload; figures only some workloads produce are printed
# as detail instead.  Times are means per call unless the name says
# otherwise; counts are totals over the traced window, except the der
# counts, which are per CRL decode, and the wire byte counts, which are per
# exchange.
UNITS = {
    "keys.sign_us": "us",
    "ocsp.decode_request_us": "us",
    "ocsp.build_response_self_us": "us",
    "ocsp.encode_response_us": "us",
    "responder.handle_us": "us",
    "responder.http_us": "us",
    "ocsp.decode_response_us": "us",
    "ocsp.verify_response_us": "us",
    "der.decode_tlv_calls": "count",
    "der.bytes_copied": "bytes",
    "crl.decode_ms": "ms",
    "crl.encode_ms": "ms",
    "crl.verify_ms": "ms",
    "crl.bytes": "bytes",
    "ca.issue_ms": "ms",
    "ca.bodies_ms": "ms",
    "ca.revoke_us": "us",
    "store.fetch_ms": "ms",
    "store.refresh_ms": "ms",
    "store.refresh_ok": "count",
    "store.refresh_fail": "count",
    "store.records": "count",
    "wire.exchange_ms.ocsp": "ms",
    "wire.bytes_sent": "bytes",
    "wire.bytes_received": "bytes",
    "wire.transport_errors": "count",
    "client.decision.UseCache": "count",
    "client.decision.UseOcsp": "count",
    "client.decision.UseCrlFetch": "count",
    "client.source.Ocsp": "count",
    "client.source.CrlFetch": "count",
    "client.source.CrlCache": "count",
    "client.fallbacks": "count",
    "client.stale": "count",
    "client.path_success_ratio": "ratio",
    **{f"self_us_per_op.{layer}": "us" for layer in LAYERS_REPORTED},
    "driver.late_tail_ms": "ms",
    "driver.cpu_s": "s",
    "trace.overhead_pct": "%",
}


def _crl_input_size(args, _result):
    return len(args[0])


def _bytes_out(_args, result):
    return len(result)


def _count_der(counter, frame_name, result):
    _tag, payload, rest = result
    counter[("der.calls", frame_name)] += 1
    counter[("der.bytes", frame_name)] += len(payload) + len(rest)


def _tag_request_nonce(tracer, _args, request):
    if request.nonce is not None:
        tracer.tag_request(request.nonce.hex())


def _tag_encoded_nonce(tracer, args, _body):
    if args[0].nonce is not None:
        tracer.tag_request(args[0].nonce.hex())


def _count_refresh(tracer, _args, ok):
    tracer.count("store.refresh_ok" if ok else "store.refresh_fail")


def _count_decision(tracer, _args, decision):
    tracer.count("client.decision." + decision.value)


def _count_wire_bytes(tracer, _args, reply):
    tracer.count("wire.bytes_sent", reply.bytes_sent)
    tracer.count("wire.bytes_received", reply.bytes_received)


def _exchange_name(args):
    return "wire.exchange.ocsp" if args[2] == "/" else "wire.exchange.crl"


def _reply_bytes(_args, reply):
    return reply.total_bytes


def install_server(tracer) -> None:
    """Wrap the CA, CRL, store, OCSP and signing layers of the serving process."""
    tracer.patch(ca.RevocationLedger, "revoke", "ca.revoke")
    tracer.patch(ca.CrlHttpServer, "current_bodies", "ca.bodies")
    tracer.patch(ca, "issue_crl", "ca.issue")
    tracer.patch(ca, "build_crl", "crl.build")
    tracer.patch(ca, "encode_crl_der", "crl.encode", size=_bytes_out)
    tracer.patch(crl, "encode_crl_der", "crl.encode", size=_bytes_out)
    tracer.patch(ca, "crl_to_pem", "crl.to_pem")
    tracer.patch(store.RevocationStore, "refresh", "store.refresh", on_result=_count_refresh)
    tracer.patch(store, "decode_crl_der", "crl.decode", size=_crl_input_size)
    tracer.patch(store, "snapshot_from_crl", "store.snapshot")
    tracer.patch(store, "verify_crl", "crl.verify")
    tracer.patch(ocsp.OcspResponder, "handle", "responder.handle")
    tracer.patch(ocsp, "decode_ocsp_request", "ocsp.decode_request",
                 on_result=_tag_request_nonce)
    tracer.patch(ocsp, "build_response", "ocsp.build_response")
    tracer.patch(ocsp, "encode_ocsp_response", "ocsp.encode_response")
    tracer.patch(keys.RsaSha256Signer, "sign", "keys.sign")
    tracer.patch_counter(der, "decode_tlv", _count_der)


def traced_fetcher(tracer, fetch):
    """The store's CRL fetcher, timed as `store.fetch`."""
    return tracer.wrap(fetch, "store.fetch", size=_bytes_out)


def install_client(tracer, driver_module, driver_ops) -> None:
    """Wrap the wire, OCSP codec, client and CRL layers of the load generator.

    `driver_ops` names the benchmark's own per-operation functions in
    `driver_module`; each becomes a `driver.op` root span.
    """
    tracer.patch(wire.HttpConnection, "request", _exchange_name,
                 size=_reply_bytes, on_result=_count_wire_bytes)
    tracer.patch(ocsp, "encode_ocsp_request", "ocsp.encode_request",
                 on_result=_tag_encoded_nonce)
    tracer.patch(ocsp, "decode_ocsp_response", "ocsp.decode_response")
    tracer.patch(ocsp, "verify_ocsp_response", "ocsp.verify_response")
    tracer.patch(client.HybridClient, "check", "client.check")
    tracer.patch(client.HybridClient, "check_many", "client.check_many")
    tracer.patch(client, "choose_protocol", "client.choose", on_result=_count_decision)
    tracer.patch(client, "decode_crl_der", "crl.decode", size=_crl_input_size)
    tracer.patch(client, "verify_crl", "crl.verify")
    tracer.patch_counter(der, "decode_tlv", _count_der)
    for op in driver_ops:
        tracer.patch(driver_module, op, "driver.op")


# --- summary ----------------------------------------------------------------


def _mean(values):
    """Mean, or None when the layer was never called (reported as missing)."""
    return sum(values) / len(values) if values else None


def per_layer(bench_spans, server_spans, bench_counts: Counter, server_counts: Counter,
              ops: int) -> tuple[dict, dict]:
    """(metrics, detail) from the spans and counters of both processes.

    `metrics` holds the figures every workload produces; `detail` adds the
    ones only some workloads exercise (per-source client timings, CRL
    exchanges from the meters) for the printed summary.
    """
    spans = list(bench_spans) + list(server_spans)
    dur = defaultdict(list)
    sizes = defaultdict(list)
    for span in spans:
        dur[span[NAME]].append((span[END] - span[START]) / 1000.0)
        sizes[span[NAME]].append(span[SIZE])
    own_server = self_times(server_spans)
    build_self = [
        own_server[s[SID]] / 1000.0 for s in server_spans if s[NAME] == "ocsp.build_response"
    ]

    handle_by_req = {
        s[REQ]: s[END] - s[START] for s in server_spans
        if s[NAME] == "responder.handle" and s[REQ]
    }
    http_gap = [
        (s[END] - s[START] - handle_by_req[s[REQ]]) / 1000.0
        for s in bench_spans
        if s[NAME] == "wire.exchange.ocsp" and s[STATUS] != RAISED and s[REQ] in handle_by_req
    ]

    counts = bench_counts + server_counts
    n_decodes = len(dur["crl.decode"])
    der_calls = counts[("der.calls", "crl.decode")]
    der_bytes = counts[("der.bytes", "crl.decode")]
    wire_spans = [s for s in bench_spans if s[NAME].startswith("wire.exchange.")]
    wire_failed = sum(1 for s in wire_spans if s[STATUS] == RAISED)
    checks = [s for s in bench_spans if s[NAME] in ("client.check", "client.check_many")]
    check_ids = {s[SID] for s in checks}
    outer_checks = [s for s in checks if s[PARENT] not in check_ids]

    def mean_ms(name):
        return _mean(dur[name]) / 1000.0 if dur[name] else None

    metrics = {
        "keys.sign_us": _mean(dur["keys.sign"]),
        "ocsp.decode_request_us": _mean(dur["ocsp.decode_request"]),
        "ocsp.build_response_self_us": _mean(build_self),
        "ocsp.encode_response_us": _mean(dur["ocsp.encode_response"]),
        "responder.handle_us": _mean(dur["responder.handle"]),
        "responder.http_us": _mean(http_gap),
        "ocsp.decode_response_us": _mean(dur["ocsp.decode_response"]),
        "ocsp.verify_response_us": _mean(dur["ocsp.verify_response"]),
        "der.decode_tlv_calls": der_calls / n_decodes if n_decodes else 0.0,
        "der.bytes_copied": der_bytes / n_decodes if n_decodes else 0.0,
        "crl.decode_ms": mean_ms("crl.decode"),
        "crl.encode_ms": mean_ms("crl.encode"),
        "crl.verify_ms": mean_ms("crl.verify"),
        "crl.bytes": _mean(sizes["crl.decode"]),
        "ca.issue_ms": mean_ms("ca.issue"),
        "ca.bodies_ms": mean_ms("ca.bodies"),
        "ca.revoke_us": _mean(dur["ca.revoke"]),
        "store.fetch_ms": mean_ms("store.fetch"),
        "store.refresh_ms": mean_ms("store.refresh"),
        "store.refresh_ok": counts["store.refresh_ok"],
        "store.refresh_fail": counts["store.refresh_fail"],
        "wire.exchange_ms.ocsp": mean_ms("wire.exchange.ocsp"),
        "wire.bytes_sent": counts["wire.bytes_sent"] / len(wire_spans) if wire_spans else 0.0,
        "wire.bytes_received": (
            counts["wire.bytes_received"] / len(wire_spans) if wire_spans else 0.0
        ),
        "wire.transport_errors": wire_failed,
        "client.decision.UseCache": counts["client.decision.UseCache"],
        "client.decision.UseOcsp": counts["client.decision.UseOcsp"],
        "client.decision.UseCrlFetch": counts["client.decision.UseCrlFetch"],
        "client.fallbacks": sum(1 for s in outer_checks if s[STATUS] == FELL_BACK),
        "client.path_success_ratio": (
            (len(wire_spans) - wire_failed) / len(wire_spans) if wire_spans else 1.0
        ),
    }
    bench_self = self_time_by_layer(bench_spans)
    server_self = self_time_by_layer(server_spans)
    for layer in LAYERS_REPORTED:
        total_ns = bench_self.get(layer, 0) + server_self.get(layer, 0)
        metrics[f"self_us_per_op.{layer}"] = total_ns / 1000.0 / max(ops, 1)

    detail = {
        "wire.exchange_ms.crl": mean_ms("wire.exchange.crl"),
        "wire.exchanges": len(wire_spans),
        "crl.decodes": n_decodes,
        "responder.http_matched": len(http_gap),
        "spans.bench": len(bench_spans),
        "spans.server": len(server_spans),
    }
    for layer in sorted(set(bench_self) | set(server_self)):
        detail[f"self_ms.{layer}"] = (bench_self.get(layer, 0) + server_self.get(layer, 0)) / 1e6
    return metrics, detail

