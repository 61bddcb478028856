"""A cache hit is one client request on both wires.

The submit reply of a job born done from cache carries its whole
history (``terminal``) and its ``trace``, through a router and through
a bare service alike.  ``GatewayClient`` and ``ServiceClient`` answer a
stream of the job they just submitted from that reply: the documents
are exactly the ones a second client fetches over the wire, and the
server's ``job_events`` is never called.  Cold jobs still stream.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cluster import LocalCluster
from repro.engine.cache import ResultCache
from repro.gateway import GatewayClient, gateway_background
from repro.imaging.image import Image
from repro.service import ServiceClient, pixels_job
from repro.service.server import DetectionService

pytestmark = pytest.mark.fast


def inline_job(seed=0):
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:32, 0:32]
    disc = np.hypot(xs - 16, ys - 16) < 6
    image = Image(0.1 * rng.random((32, 32)) + 0.8 * disc)
    return pixels_job(image, strategy="intelligent", iterations=60, seed=seed)


@contextmanager
def router_target():
    """``(server, tcp address, http address)`` of a two-backend cluster."""
    with LocalCluster(n_backends=2, gateway=True) as cluster:
        yield cluster.router, cluster.address, cluster.gateway_address


@contextmanager
def service_target():
    """The same triple for one cached service behind a gateway."""
    handle = gateway_background(
        lambda: DetectionService(workers=1, cache=ResultCache()))
    try:
        service = handle.gateway.target
        yield service, service.address, handle.gateway.address
    finally:
        handle.stop()


TARGETS = {"router": router_target, "service": service_target}


def make_client(wire, tcp, http):
    if wire == "gateway":
        return GatewayClient(http)
    return ServiceClient(*tcp)


@contextmanager
def counted_job_events(server):
    """Record every ``job_events`` call the server's wires make."""
    calls = []
    original = server.job_events

    def job_events(job_id):
        calls.append(job_id)
        return original(job_id)

    server.job_events = job_events
    try:
        yield calls
    finally:
        del server.job_events


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("wire", ["gateway", "tcp"])
def test_born_done_stream_equals_a_second_clients_wire_stream(wire, target):
    job = inline_job()
    with TARGETS[target]() as (server, tcp, http):
        with make_client(wire, tcp, http) as first, \
                make_client(wire, tcp, http) as second:
            first.detect(job)  # cold: fills the cache
            ack = first.submit(job)
            assert ack["cached"] and ack["state"] == "done"
            assert ack["terminal"]["event"] == "result"
            with counted_job_events(server) as calls:
                local = list(first.stream(ack["job_id"]))
                assert calls == []
                remote = list(second.stream(ack["job_id"]))
                assert calls == [ack["job_id"]]
    assert [json.dumps(doc) for doc in local] == \
        [json.dumps(doc) for doc in remote]
    assert local[-1] == ack["terminal"]
    if wire == "gateway":
        assert local[0]["trace"] == ack["trace"]
        assert ("node" in local[0]) == (target == "router")


@pytest.mark.parametrize("target", sorted(TARGETS))
@pytest.mark.parametrize("wire", ["gateway", "tcp"])
def test_warm_detects_never_stream_and_cold_ones_do(wire, target):
    jobs = [inline_job(seed) for seed in range(3)]
    with TARGETS[target]() as (server, tcp, http):
        with make_client(wire, tcp, http) as client:
            with counted_job_events(server) as calls:
                cold = [client.detect(job) for job in jobs]
                assert len(calls) == len(jobs)
                warm = [client.detect(job) for job in jobs * 2]
                assert len(calls) == len(jobs)
    if wire == "gateway":
        assert all(doc["cached"] for doc in warm)
        cold = [doc["result"] for doc in cold]
        warm = [doc["result"] for doc in warm]
    else:
        assert all(out.cached for out in warm)
        cold = [out.result for out in cold]
        warm = [out.result for out in warm]
    assert warm == cold * 2


def test_the_slot_holds_only_the_latest_submit():
    jobs = [inline_job(seed) for seed in range(2)]
    with service_target() as (server, tcp, _http):
        with ServiceClient(*tcp) as client:
            for job in jobs:
                client.detect(job)
            acks = [client.submit(job) for job in jobs]
            with counted_job_events(server) as calls:
                for ack in acks:
                    assert list(client.stream(ack["job_id"]))[-1]["event"] \
                        == "result"
            cold_ack = client.submit(inline_job(seed=7))
            assert "terminal" not in cold_ack and "trace" not in cold_ack
            assert client._born_done is None
    assert calls == [acks[0]["job_id"]]
