"""GatewayClient keeps one connection for its request/response calls:
counted at the gateway, surviving an idle close, shared between threads
and across ``os.fork()``."""

import os
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.gateway import GatewayClient, gateway_background
from repro.service import scene_job
from repro.service.server import DetectionService


@pytest.fixture
def gateway():
    handle = gateway_background(
        lambda: DetectionService(workers=1, queue_size=8))
    yield handle
    handle.stop()


@pytest.fixture
def client(gateway):
    with GatewayClient(gateway.address) as client:
        yield client


def accepted(handle):
    return handle.gateway.stats()["n_connections_accepted"]


def finished_job(client):
    ack = client.submit(scene_job(size=32, circles=2, iterations=40, seed=1))
    assert list(client.stream(ack["job_id"]))[-1]["event"] == "result"
    return ack["job_id"]


def close_server_side(handle):
    """What an idle timeout or a gateway restart does to a kept
    connection: the server end goes away between two calls."""
    gateway = handle.gateway

    def close_all():
        for writer in list(gateway._connections):
            writer.close()

    handle._loop.call_soon_threadsafe(close_all)
    deadline = time.monotonic() + 5.0
    while gateway.stats()["n_connections_open"] and time.monotonic() < deadline:
        time.sleep(0.01)
    assert gateway.stats()["n_connections_open"] == 0


def test_many_calls_one_accepted_connection(gateway, client):
    job_id = finished_job(client)
    before = accepted(gateway)
    for _ in range(50):
        assert client.status(job_id)["job_id"] == job_id
    assert client.stats()["role"] == "service"
    assert "gateway_connections_accepted_total" in client.metrics_text()
    assert accepted(gateway) == before
    assert gateway.gateway.stats()["n_connections_open"] == 1
    # A stream is its own connection, and leaves the kept one alone.
    assert list(client.stream(job_id))[-1]["event"] == "result"
    assert client.status(job_id)["state"] == "done"
    assert accepted(gateway) == before + 1
    client.close()
    assert client.status(job_id)["state"] == "done"  # re-opens
    assert accepted(gateway) == before + 2


def test_survives_the_server_closing_the_idle_connection(gateway, client):
    job_id = finished_job(client)
    before = accepted(gateway)
    close_server_side(gateway)
    assert client.status(job_id)["state"] == "done"
    close_server_side(gateway)
    # A submit too: the hang-up is noticed before anything is sent, so
    # nothing is ever replayed.
    ack = client.submit(scene_job(size=32, circles=2, iterations=40, seed=1))
    assert ack["ok"]
    assert accepted(gateway) == before + 2


def test_an_error_response_that_closes_does_not_strand_the_client(gateway, client):
    job_id = finished_job(client)
    before = accepted(gateway)
    with pytest.raises(ServiceError, match="unrecognised HTTP method"):
        client.request("BREW", "/v1/stats")  # answered 400 + Connection: close
    assert client.status(job_id)["state"] == "done"
    assert accepted(gateway) == before + 1


def test_shared_between_threads(gateway, client):
    job_id = finished_job(client)
    before = accepted(gateway)
    errors = []

    def worker():
        try:
            for _ in range(100):
                assert client.status(job_id)["job_id"] == job_id
        except Exception as exc:  # surfaced below, in the test thread
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert accepted(gateway) == before


def test_fork_gets_its_own_connection(gateway, client):
    job_id = finished_job(client)
    before = accepted(gateway)
    pid = os.fork()
    if pid == 0:  # child: talk, then leave without running pytest's teardown
        code = 1
        try:
            ok = all(client.status(job_id)["state"] == "done" for _ in range(5))
            code = 0 if ok else 2
        finally:
            os._exit(code)
    assert client.status(job_id)["state"] == "done"
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert client.status(job_id)["state"] == "done"
    assert accepted(gateway) == before + 1  # the child's own
