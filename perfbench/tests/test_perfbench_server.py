"""The server helper's process lifecycle: start, pause, resume, stop."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from gridpki import ocsp, wire  # noqa: E402
from gridpki.crl import DistinguishedName  # noqa: E402
from gridpki.keys import (  # noqa: E402
    generate_private_key, private_key_to_pem, public_key_from_pem,
)
from gridpki.responder import REQUEST_CONTENT_TYPE  # noqa: E402

from server import ServerFailed, ServerProcess  # noqa: E402

REVOKED = [0x1001, 0x1002, 0x1003]
KEY_PEM = private_key_to_pem(generate_private_key())


def status_of(server, serial):
    info = server.info
    hashes = ocsp.IssuerHashes(
        DistinguishedName.parse(info["issuer"]), public_key_from_pem(info["public_key_pem"])
    )
    body = ocsp.encode_ocsp_request(ocsp.OcspRequest((hashes.cert_id(serial),), b"n" * 16))
    reply = wire.exchange(info["ocsp_url"], method="POST", body=body, timeout_s=5,
                          headers=[("Content-Type", REQUEST_CONTENT_TYPE)])
    return ocsp.decode_ocsp_response(reply.body).result_for(serial).status.status.value


def start(tmp_path):
    return ServerProcess(SRC, tmp_path, key_pem=KEY_PEM, revoked=REVOKED,
                         refresh_interval_s=3600.0, start_refresh=False, jitter_seed=1)


def test_starts_pauses_resumes_and_stops_without_leftovers(tmp_path):
    with start(tmp_path) as server:
        assert status_of(server, 0x1002) == "revoked"
        assert status_of(server, 0x2002) == "good"
        server.pause()
        with pytest.raises(wire.TransportError):
            status_of(server, 0x1002)
        server.resume()
        assert status_of(server, 0x1002) == "revoked"
        server.revoke(0x2002)
        usage = server.usage()
        assert usage["cpu_s"] > 0 and usage["maxrss_kb"] > 0
        final = server.stop()
        assert final["ledger"] == len(REVOKED) + 1
        assert server.proc.returncode == 0
    assert server.proc.poll() is not None
    assert list(tmp_path.iterdir()) == []  # the CA directory was removed


def test_errors_are_reported_and_the_child_is_reaped(tmp_path):
    with start(tmp_path) as server:
        with pytest.raises(ServerFailed, match="AlreadyRevoked"):
            server.revoke(0x1001)
        with pytest.raises(ServerFailed, match="unknown command"):
            server.call("reboot")
        assert server.proc.poll() is None  # still serving
    assert server.proc.poll() is not None


def test_closing_the_control_channel_stops_the_child(tmp_path):
    server = start(tmp_path)
    server.proc.stdin.close()
    assert server.proc.wait(timeout=30) == 0
    server.kill()
