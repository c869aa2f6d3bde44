"""The serving side of the benchmark, run in a process of its own.

`ServerProcess` (used by the benchmark) starts this file with the Python
that runs the benchmark, sends it one JSON line of configuration on stdin
and then drives it with one JSON command per line; every command gets one
JSON reply line on stdout.  The child builds the stack from gridpki's
public API only: a CA directory whose ledger holds the given serials, a
`ca.CrlHttpServer`, a `store.RevocationStore` fed over HTTP from it with a
seeded refresh-jitter rng, an `ocsp.OcspResponder`, and a
`responder.OcspHttpServer` in front.  Commands pause and resume the OCSP
listener, revoke serials through the serving ledger, report the process's
own CPU time and peak RSS with the store's refresh count, and stop.  End
of input also stops the child, so it never outlives the benchmark.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
STOP_TIMEOUT_S = 30.0


class ServerFailed(RuntimeError):
    """The server process exited or answered with an error."""


def _usage(revocations) -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "refreshes": revocations.refresh_successes + revocations.refresh_failures,
    }


# --- parent side ------------------------------------------------------------


class ServerProcess:
    """Handle on one server child; a context manager that always reaps it."""

    def __init__(self, src: Path, workdir: Path, *, key_pem: bytes, revoked,
                 refresh_interval_s: float, start_refresh: bool, jitter_seed: int,
                 cpus=None, trace_path=None):
        self._lock = threading.Lock()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        try:
            self.info = self._send({
                "src": str(src),
                "cpus": cpus,
                "workdir": str(workdir),
                "key_pem": key_pem.decode("ascii"),
                "revoked": [format(s, "x") for s in revoked],
                "refresh_interval_s": refresh_interval_s,
                "start_refresh": start_refresh,
                "jitter_seed": jitter_seed,
                "trace_path": None if trace_path is None else str(trace_path),
            })
        except BaseException:
            self.kill()
            raise

    def _send(self, message: dict) -> dict:
        with self._lock:
            try:
                self.proc.stdin.write(json.dumps(message) + "\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                raise ServerFailed(f"server input closed: {exc}") from exc
            line = self.proc.stdout.readline()
        if not line:
            raise ServerFailed(f"server exited with code {self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise ServerFailed(reply["error"])
        return reply

    def call(self, op: str, **args) -> dict:
        return self._send({"op": op, **args})

    def pause(self) -> None:
        self.call("pause")

    def resume(self) -> None:
        self.call("resume")

    def revoke(self, serial: int) -> None:
        self.call("revoke", serial=format(serial, "x"))

    def usage(self) -> dict:
        """The child's CPU seconds, peak RSS and store refresh count."""
        return self.call("usage")

    def stop(self) -> dict:
        """Stop the stack, wait for the child to exit, return its final report."""
        try:
            final = self.call("stop")
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        finally:
            self.kill()
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *_exc) -> None:
        self.kill()


# --- child side -------------------------------------------------------------


def _serve(config: dict, out) -> None:
    if config["cpus"]:
        os.sched_setaffinity(0, config["cpus"])
    sys.path.insert(0, config["src"])
    from gridpki import ca, crl, der, keys, ocsp, responder, store

    tracer = None
    if config["trace_path"]:
        from tracing import Tracer
        import layers

        tracer = Tracer()
        layers.install_server(tracer)

    cadir = Path(tempfile.mkdtemp(prefix="ca-", dir=config["workdir"]))
    stack = []
    try:
        # The layout ca.init_ca_dir writes, with the benchmark's key instead
        # of a fresh one: RSA key generation time varies too much to be
        # part of the timed set-up.
        private_key = keys.private_key_from_pem(config["key_pem"])
        (cadir / ca.KEY_FILE).write_bytes(keys.private_key_to_pem(private_key))
        (cadir / ca.PUB_FILE).write_bytes(keys.public_key_to_pem(private_key.public_key()))
        (cadir / ca.ISSUER_FILE).write_text(
            crl.DistinguishedName.parse(ca.DEFAULT_ISSUER).render() + "\n"
        )
        (cadir / ca.LEDGER_FILE).write_text("")
        ctx = ca.load_ca_dir(cadir)
        now = der.Asn1Time.now()
        for serial in config["revoked"]:
            ctx.ledger.revoke(int(serial, 16), crl.CrlReason.KEY_COMPROMISE, at=now)
        crl_server = ca.CrlHttpServer(ctx.ledger, ctx.signer)
        crl_server.start()
        stack.append(crl_server)
        fetch = store.http_fetcher(crl_server.url("/crl.der"))
        if tracer is not None:
            fetch = layers.traced_fetcher(tracer, fetch)
        revocations = store.RevocationStore(
            fetch, ctx.public_key,
            refresh_interval_s=config["refresh_interval_s"],
            rng=random.Random(config["jitter_seed"]),
        )
        if not revocations.refresh():
            raise ServerFailed(f"initial refresh failed: {revocations.last_error}")
        ocsp_server = responder.OcspHttpServer(
            ocsp.OcspResponder(ctx.issuer, ctx.public_key, ctx.signer, revocations)
        )
        ocsp_server.start()
        stack.append(ocsp_server)
        if config["start_refresh"]:
            revocations.start(initial_refresh=False)
        stack.append(revocations)

        def reply(message: dict) -> None:
            out.write(json.dumps(message) + "\n")
            out.flush()

        reply({
            "ocsp_url": ocsp_server.url(),
            "crl_der_url": crl_server.url("/crl.der"),
            "crl_pem_url": crl_server.url("/crl.pem"),
            "issuer": ctx.issuer.render(),
            "public_key_pem": keys.public_key_to_pem(ctx.public_key).decode("ascii"),
        })
        for line in sys.stdin:
            command = json.loads(line)
            op = command["op"]
            try:
                if op == "pause":
                    ocsp_server.pause()
                    reply({"ok": True})
                elif op == "resume":
                    ocsp_server.resume()
                    reply({"ok": True})
                elif op == "revoke":
                    ctx.ledger.revoke(int(command["serial"], 16), crl.CrlReason.KEY_COMPROMISE)
                    reply({"ok": True})
                elif op == "usage":
                    reply(_usage(revocations))
                elif op == "stop":
                    break
                else:
                    reply({"error": f"unknown command {op!r}"})
            except Exception as exc:  # report to the driver, keep serving
                reply({"error": f"{op}: {type(exc).__name__}: {exc}"})
        else:
            return  # input closed: the driver is gone
        for part in reversed(stack):
            part.stop()
        stack.clear()
        final = {**_usage(revocations), "store": revocations.metrics(), "ledger": len(ctx.ledger)}
        if tracer is not None:
            tracer.unpatch_all()
            tracer.dump(config["trace_path"], "server")
            final["counters"] = [[list(k) if isinstance(k, tuple) else k, v]
                                 for k, v in tracer.counters().items()]
        reply(final)
    finally:
        for part in reversed(stack):
            part.stop()
        shutil.rmtree(cadir, ignore_errors=True)


def main() -> int:
    out = sys.stdout
    sys.stdout = sys.stderr  # nothing but replies may reach the driver's pipe
    config = json.loads(sys.stdin.readline())
    try:
        _serve(config, out)
    except Exception as exc:
        out.write(json.dumps({"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        out.flush()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
