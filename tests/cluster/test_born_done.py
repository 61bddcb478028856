"""A finished router job keeps its result, not its request.

A terminal job drops its submit spec (inline pixels and all); a job its
owner answered from cache keeps the one terminal event the submit reply
carried and streams it without a backend call — the same documents the
owner would have replayed, over TCP and SSE alike, even once the owner
is gone.  The result index fingerprints that event, not the reply.
"""

import json
import time

import numpy as np
import pytest

from repro.cluster import LocalCluster
from repro.cluster.router import ShardRouter
from repro.imaging.image import Image
from repro.service import ServiceClient, pixels_job

pytestmark = pytest.mark.fast


def inline_job(seed=0):
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:32, 0:32]
    disc = np.hypot(xs - 16, ys - 16) < 6
    image = Image(0.1 * rng.random((32, 32)) + 0.8 * disc)
    return pixels_job(image, strategy="intelligent", iterations=60, seed=seed)


def backend_address(cluster, node_id):
    return cluster.backend_addresses[cluster.backend_index(node_id)]


def backend_stream(cluster, node_id, backend_job_id):
    """The owner's own stream of its job: ack, then its history."""
    host, port = backend_address(cluster, node_id).rsplit(":", 1)
    with ServiceClient(host, int(port)) as backend:
        ack = backend._call({"op": "stream", "job_id": backend_job_id})
        events = []
        while not events or events[-1].get("event") not in (
                "result", "error", "cancelled"):
            events.append(backend._read_line())
    return ack, events


def test_terminal_jobs_hold_no_spec_and_live_jobs_keep_theirs():
    jobs = [inline_job(seed) for seed in range(3)]
    with LocalCluster(n_backends=2) as cluster, cluster.client() as client:
        for _ in range(2):  # cold, then warm
            for job in jobs:
                client.detect(job)
        router = cluster.router
        retained = list(router._jobs.values())
        assert len(retained) == 2 * len(jobs)
        assert all(job.terminal and job.spec == {} for job in retained)
        warm = retained[len(jobs):]
        assert all(job.terminal_event is not None for job in warm)
    with LocalCluster(n_backends=1, workers=0) as cluster, \
            cluster.client() as client:
        ack = client.submit(jobs[0])  # queued, never dispatched
        live = cluster.router._jobs[ack["job_id"]]
        assert not live.terminal
        assert live.spec == jobs[0]  # failover re-dispatches from it


def test_born_done_streams_equal_the_owners_replay_over_tcp_and_sse():
    job = inline_job()
    with LocalCluster(n_backends=2, gateway=True) as cluster, \
            cluster.client() as client, cluster.gateway_client() as gateway:
        client.detect(job)  # cold: fills the owner's cache
        ack = client.submit(job)
        assert set(ack) == {"ok", "job_id", "cached", "state", "node",
                            "terminal", "trace"}
        assert ack["cached"] and ack["state"] == "done"
        rjob = cluster.router._jobs[ack["job_id"]]
        owner_ack, owner_events = backend_stream(
            cluster, rjob.node_id, rjob.backend_job_id)
        assert owner_ack["ok"] and owner_ack["state"] == "done"
        assert [e["event"] for e in owner_events] == ["result"]
        expected = [{"ok": True, "job_id": ack["job_id"], "state": "done",
                     "node": ack["node"], "trace": rjob.trace_id},
                    *owner_events]
        tcp_ack = client._call({"op": "stream", "job_id": ack["job_id"]})
        tcp = [tcp_ack, client._read_line()]
        assert tcp == expected
        sse = list(gateway.stream_raw(ack["job_id"]))
        assert [json.loads(data) for _name, data in sse] == expected
        assert [name for name, _data in sse] == [None, "result"]


def test_born_done_job_streams_after_its_owner_is_stopped():
    job = inline_job()
    with LocalCluster(n_backends=2, probe_interval=600.0) as cluster, \
            cluster.client() as client:
        cold = client.detect(job)
        ack = client.submit(job)
        cluster.kill_backend(cluster.backend_index(ack["node"]))
        warm = client.collect(ack["job_id"])
        assert warm.result is not None
        assert warm.circles == cold.circles


def test_cache_hits_of_one_spec_share_the_result_digest():
    job = inline_job()
    with LocalCluster(n_backends=2) as cluster, cluster.client() as client:
        client.detect(job)
        acks = [client.submit(job) for _ in range(2)]
        terminal = [list(client.stream(ack["job_id"]))[-1] for ack in acks]
        entries = cluster.router.result_index.load()
        digests = [entries[ack["job_id"]].digest for ack in acks]
    assert digests[0] is not None and digests[0] == digests[1]
    assert digests[0] == ShardRouter._digest_event(terminal[0])


def test_a_completion_seen_only_in_a_status_document_records_no_digest():
    with LocalCluster(n_backends=1) as cluster, cluster.client() as client:
        ack = client.submit(inline_job(seed=5))
        deadline = time.monotonic() + 10.0
        while client.status(ack["job_id"])["state"] != "done":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        entry = cluster.router.result_index.load()[ack["job_id"]]
    assert entry.state == "done"
    assert entry.digest is None


def test_a_stream_after_a_status_completion_records_the_digest():
    with LocalCluster(n_backends=1) as cluster, cluster.client() as client:
        ack = client.submit(inline_job(seed=6))
        deadline = time.monotonic() + 10.0
        while client.status(ack["job_id"])["state"] != "done":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert cluster.router.result_index.load()[ack["job_id"]].digest is None
        terminal = list(client.stream(ack["job_id"]))[-1]
        entry = cluster.router.result_index.load()[ack["job_id"]]
    assert entry.state == "done"
    assert entry.digest == ShardRouter._digest_event(terminal)
