"""The gateway over a single DetectionService: REST submit/status/
cancel, SSE bit-parity with the TCP stream, auth/quota 429s, malformed
HTTP handling, and the drain lifecycle."""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.cluster.quota import QuotaPolicy
from repro.errors import (
    ClusterError,
    JobNotFoundError,
    QuotaExceededError,
    ServiceError,
)
from repro.gateway import GatewayClient, gateway_background
from repro.service import ServiceClient, scene_job
from repro.service.server import DetectionService

SIZE = 64
CIRCLES = 4
ITERS = 300


def job_spec(seed=0, **extra):
    spec = scene_job(size=SIZE, circles=CIRCLES, strategy="intelligent",
                     iterations=ITERS, seed=seed)
    spec.update(extra)
    return spec


def slow_spec(seed=4):
    return scene_job(size=96, circles=8, strategy="naive", iterations=6000,
                     seed=seed, options={"nx": 3, "ny": 3})


@pytest.fixture
def gateway():
    handle = gateway_background(
        lambda: DetectionService(workers=2, queue_size=8))
    yield handle
    handle.stop()


@pytest.fixture
def quota_gateway():
    handle = gateway_background(
        lambda: DetectionService(
            workers=2, queue_size=8,
            quota=QuotaPolicy(rate=0.5, burst=1),
        ))
    yield handle
    handle.stop()


class TestJobControl:
    def test_submit_status_stream(self, gateway):
        client = GatewayClient(gateway.address)
        ack = client.submit(job_spec())
        assert ack["ok"] and ack["job_id"]
        docs = list(client.stream(ack["job_id"]))
        assert docs[0]["ok"] and docs[0]["job_id"] == ack["job_id"]
        assert docs[-1]["event"] == "result"
        assert client.status(ack["job_id"])["state"] == "done"

    def test_sse_payloads_bit_identical_to_tcp_stream(self, gateway):
        """The tentpole contract: every SSE data payload byte-equals the
        JSON line the TCP ``op: stream`` sends for the same job."""
        client = GatewayClient(gateway.address)
        ack = client.submit(job_spec(seed=3))
        http_raw = [data for _ev, data in client.stream_raw(ack["job_id"])]
        # The job is terminal now; a TCP stream replays the same history.
        service = gateway.gateway.target
        with ServiceClient(*service.address) as tcp:
            tcp_docs = list(tcp.stream(ack["job_id"]))
        tcp_raw = [json.dumps(d, separators=(",", ":")) for d in tcp_docs]
        # Ack states may differ (live "queued" vs replay "done"): compare
        # the event documents, which both transports replay in full.
        http_events = [r for r in http_raw if '"event"' in r]
        tcp_events = [r for r in tcp_raw if '"event"' in r]
        assert http_events == tcp_events
        assert any('"event":"result"' in r for r in http_events)

    def test_cancel(self, gateway):
        client = GatewayClient(gateway.address)
        acks = [client.submit(slow_spec(seed=s)) for s in range(3)]
        reply = client.cancel(acks[-1]["job_id"])
        assert reply["ok"]
        # Cancelled (queued) or already running+flagged — either way the
        # job ends without all three running serially to completion.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.status(acks[-1]["job_id"])["state"] in (
                    "cancelled", "done"):
                break
            time.sleep(0.05)
        else:
            pytest.fail("cancelled job never reached a terminal state")

    def test_unknown_job_404(self, gateway):
        client = GatewayClient(gateway.address)
        with pytest.raises(JobNotFoundError):
            client.status("nope")
        with pytest.raises(JobNotFoundError):
            list(client.stream("nope"))

    def test_submit_without_job_object_400(self, gateway):
        client = GatewayClient(gateway.address)
        with pytest.raises(ServiceError):
            client.request("POST", "/v1/jobs", {"nope": 1})

    def test_unknown_route_404(self, gateway):
        client = GatewayClient(gateway.address)
        with pytest.raises(ServiceError):
            client.request("GET", "/v2/definitely-not-a-route")

    def test_stats_surface(self, gateway):
        client = GatewayClient(gateway.address)
        client.detect(job_spec(seed=9))
        stats = client.stats()
        assert stats["role"] == "service"
        assert "stage_latency" in stats and "n_cache_misses" in stats
        doc = client.cluster()
        assert doc["gateway"]["target_role"] == "service"
        assert doc["gateway"]["n_streams"] >= 1


class TestQuota:
    def test_429_with_retry_after(self, quota_gateway):
        client = GatewayClient(quota_gateway.address, client_id="greedy")
        client.submit(job_spec(seed=0))  # burst of 1: spent
        with pytest.raises(QuotaExceededError) as err:
            client.submit(job_spec(seed=1))
        assert err.value.retry_after > 0

    def test_retry_after_header_present(self, quota_gateway):
        host, port = quota_gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        body = json.dumps({"job": job_spec(seed=0)})
        headers = {"X-Repro-Client": "header-client",
                   "Content-Type": "application/json"}
        conn.request("POST", "/v1/jobs", body=body, headers=headers)
        assert conn.getresponse().read() is not None
        conn.request("POST", "/v1/jobs", body=body, headers=headers)
        response = conn.getresponse()
        assert response.status == 429
        assert float(response.headers["Retry-After"]) > 0
        doc = json.loads(response.read())
        assert doc["error"] == "quota-exceeded"
        conn.close()

    def test_distinct_clients_have_distinct_buckets(self, quota_gateway):
        a = GatewayClient(quota_gateway.address, client_id="alice")
        b = GatewayClient(quota_gateway.address, client_id="bob")
        a.submit(job_spec(seed=0))
        b.submit(job_spec(seed=1))  # bob's bucket is untouched by alice


class TestClientId:
    """A client id the wire would refuse is a 400 at the gateway — not
    the 500 an unhashable id used to raise inside the quota."""

    def post(self, address, body, headers=()):
        host, port = address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/v1/jobs", body=json.dumps(body),
                         headers={"Content-Type": "application/json", **dict(headers)})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize("client", [["a"], "c" * 129], ids=["list", "oversize"])
    def test_bad_body_client_400(self, quota_gateway, client):
        status, doc = self.post(quota_gateway.address,
                                {"job": job_spec(seed=0), "client": client})
        assert status == 400
        assert doc["message"].startswith("client")
        GatewayClient(quota_gateway.address).stats()  # still serving

    def test_oversize_client_header_400(self, quota_gateway):
        status, doc = self.post(quota_gateway.address, {"job": job_spec(seed=0)},
                                headers={"X-Repro-Client": "c" * 129})
        assert status == 400
        assert doc["message"].startswith("x-repro-client")


class TestMalformedHttp:
    def send_raw(self, address, payload: bytes) -> bytes:
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        return b"".join(chunks)

    def test_garbage_gets_400_not_crash(self, gateway):
        raw = self.send_raw(gateway.address, b"THIS IS NOT HTTP\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400 ")
        # ... and the server is still alive:
        GatewayClient(gateway.address).stats()

    def test_oversize_headers_431(self, gateway):
        raw = self.send_raw(
            gateway.address,
            b"GET / HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 431 ")

    def test_keep_alive_two_requests_one_connection(self, gateway):
        host, port = gateway.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request("GET", "/v1/stats")
        first = conn.getresponse()
        assert first.status == 200
        first.read()
        conn.request("GET", "/v1/stats")  # same socket
        assert conn.getresponse().status == 200
        conn.close()


class TestDrainLifecycle:
    def test_drain_finishes_streams_then_refuses(self, gateway):
        client = GatewayClient(gateway.address)
        ack = client.submit(slow_spec())
        got = {}

        def consume():
            got["docs"] = list(client.stream(ack["job_id"]))

        streamer = threading.Thread(target=consume)
        streamer.start()
        time.sleep(0.2)  # let the SSE stream attach
        reply = client.drain()
        assert reply["draining"]
        with pytest.raises(ClusterError):
            client.submit(job_spec(seed=5))  # 503: not admitting
        streamer.join(timeout=60)
        assert got["docs"][-1]["event"] == "result"  # stream survived
        assert client.drain(wait=True)["drained"]

    def test_drain_on_idle_gateway_is_immediate(self, gateway):
        client = GatewayClient(gateway.address)
        reply = client.drain(wait=True)
        assert reply["draining"] and reply["drained"]
        assert reply["active_streams"] == 0
