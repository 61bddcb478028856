"""One JSON-lines job server under service and router: the same op
table, error framing and stream relay on both, and the same answers
in-process through ``request`` as over the wire."""

import asyncio
import json
import socket

import pytest

from repro.cluster.quota import QuotaPolicy
from repro.cluster.router import router_background
from repro.errors import ClusterError, GatewayError, ServiceError
from repro.gateway.server import Gateway
from repro.service import JobServer, ServiceClient, serve_background
from repro.service.protocol import (
    CLIENT_ID_MAX_LEN,
    TRACE_ID_MAX_LEN,
    error_reply,
    scene_job,
)


@pytest.fixture(scope="module")
def backend():
    handle = serve_background(workers=1, queue_size=4)
    yield handle
    handle.stop()


@pytest.fixture(scope="module", params=["service", "router"])
def server(request, backend):
    """``(handle, server object)`` for a service, or a router over it."""
    if request.param == "service":
        yield backend, backend.service
        return
    host, port = backend.address
    handle = router_background(backends=[f"{host}:{port}"])
    yield handle, handle.router
    handle.stop()


def wire(address, *lines):
    """Send raw protocol lines on one connection; the decoded replies."""
    with socket.create_connection(address, timeout=10) as sock:
        stream = sock.makefile("rwb")
        replies = []
        for line in lines:
            stream.write(line + b"\n")
            stream.flush()
            replies.append(json.loads(stream.readline()))
        return replies


def in_process(handle, msg):
    return asyncio.run_coroutine_threadsafe(
        handle._obj.request(msg), handle._loop).result(timeout=10)


def test_both_targets_are_job_servers(server):
    assert isinstance(server[1], JobServer)


def test_ping_names_the_role(server):
    handle, obj = server
    [reply] = wire(handle.address, b'{"op": "ping"}')
    assert reply == {"ok": True, "pong": True, "role": obj.role}


def test_errors_share_one_framing_and_keep_the_connection(server):
    handle, _ = server
    replies = wire(
        handle.address,
        b"not json",
        b"[1, 2]",
        b'{"op": "nope"}',
        b'{"op": "status", "job_id": "missing"}',
        b'{"op": "stream", "job_id": "missing"}',
        b'{"op": "ping"}',
    )
    assert [r.get("error") for r in replies] == [
        "bad-request", "bad-request", "bad-request",
        "unknown-job", "unknown-job", None,
    ]
    assert "unknown op 'nope'" in replies[2]["message"]
    assert replies[-1]["pong"]


@pytest.mark.parametrize("op", ["ping", "stats", "metrics"])
def test_request_in_process_answers_like_the_wire(server, op):
    handle, _ = server
    [over_wire] = wire(handle.address, json.dumps({"op": op}).encode())
    direct = in_process(handle, {"op": op})
    assert direct["ok"] and over_wire["ok"]
    assert set(direct) == set(over_wire)


def test_unknown_op_raises_in_process(server):
    handle, _ = server
    with pytest.raises(ServiceError, match="unknown op"):
        in_process(handle, {"op": "job_events"})


def test_submit_envelope_is_checked_the_same_on_both(server):
    """Service and router apply one ``submit_fields`` check: a bad
    priority, deadline or trace id is a ``bad-request`` reply on the
    same connection, and well-formed envelopes run as before."""
    handle, _ = server
    job = scene_job(size=32, circles=2, iterations=20, seed=11)

    def submit(**fields):
        return json.dumps({"op": "submit", "job": job, **fields}).encode()

    replies = wire(
        handle.address,
        submit(priority="high"),
        submit(deadline="soon"),
        submit(trace="t" * (TRACE_ID_MAX_LEN + 1)),
        submit(trace=7),
        submit(),
        submit(priority=1, deadline=60, trace="t" * TRACE_ID_MAX_LEN),
    )
    rejected, accepted = replies[:4], replies[4:]
    assert [r.get("error") for r in rejected] == ["bad-request"] * 4
    for reply, field in zip(rejected, ["priority", "deadline", "trace", "trace"]):
        assert reply["message"].startswith(field)
    assert all(r["ok"] for r in accepted)
    with ServiceClient(*handle.address) as client:
        outs = [client.collect(r["job_id"]) for r in accepted]
    assert all(out.result is not None for out in outs)
    assert outs[0].result["circles"] == outs[1].result["circles"]


@pytest.fixture(scope="module", params=["service", "router"])
def quota_server(request, backend):
    """A quota-holding service, or a quota-holding router over the
    shared backend: the shape where an unhashable client id used to
    reach the quota's bucket map and drop the connection."""
    if request.param == "service":
        handle = serve_background(workers=1, queue_size=4,
                                  quota=QuotaPolicy(rate=100))
    else:
        host, port = backend.address
        handle = router_background(backends=[f"{host}:{port}"],
                                   quota=QuotaPolicy(rate=100))
    yield handle
    handle.stop()


def test_bad_client_id_is_a_bad_request_and_keeps_the_connection(quota_server):
    job = scene_job(size=32, circles=2, iterations=20, seed=11)

    def submit(client):
        return json.dumps({"op": "submit", "job": job, "client": client}).encode()

    replies = wire(
        quota_server.address,
        submit(["a"]),
        submit("c" * (CLIENT_ID_MAX_LEN + 1)),
        b'{"op": "ping"}',
    )
    assert [r.get("error") for r in replies[:2]] == ["bad-request"] * 2
    assert all(r["message"].startswith("client id") for r in replies[:2])
    assert replies[2]["pong"]


def test_longest_client_id_is_admitted(quota_server):
    job = scene_job(size=32, circles=2, iterations=20, seed=12)
    [reply] = wire(
        quota_server.address,
        json.dumps({"op": "submit", "job": job,
                    "client": "c" * CLIENT_ID_MAX_LEN}).encode(),
    )
    assert reply["ok"]
    with ServiceClient(*quota_server.address) as client:
        assert client.collect(reply["job_id"]).result is not None


def test_error_reply_frames_cluster_errors_as_no_backends():
    assert error_reply(ClusterError("none healthy")) == {
        "ok": False, "error": "no-backends", "message": "none healthy"}


def test_gateway_takes_job_servers_only():
    with pytest.raises(GatewayError, match="got object"):
        Gateway(object())
