"""Counts, not clocks: warm jobs reuse connections and parses.

The router keeps a bounded pool of idle connections per backend, a
fingerprint memo of the specs it has parsed and a memo of the results
its backends answered from cache, so a steady stream of repeat jobs
opens no backend connection, submits nothing to the parse thread and,
past each payload's first hit, sends no backend request at all.  A connection can outlive the backend process behind it
(same-port restart): that is a stale socket, not a dead node.
"""

import time

import numpy as np

from repro.cluster import LocalCluster
from repro.cluster.pool import MAX_IDLE_PER_NODE
from repro.imaging.image import Image
from repro.service import pixels_job, scene_job

N_PAYLOADS = 5
N_WARM = 200


def payloads():
    jobs = []
    for seed in range(N_PAYLOADS):
        rng = np.random.default_rng(seed)
        ys, xs = np.mgrid[0:32, 0:32]
        disc = np.hypot(xs - 16, ys - 16) < 6
        image = Image(0.1 * rng.random((32, 32)) + 0.8 * disc)
        jobs.append(pixels_job(image, strategy="intelligent",
                               iterations=60, seed=seed))
    return jobs


def accepted(cluster):
    return sum(b.handle.service.stats()["n_connections_accepted"]
               for b in cluster.backends)


def memo(router, result):
    return router.obs.counter("spec_memo_lookups_total", result=result).value


def connects(router, kind):
    return router.obs.counter(
        "cluster_backend_connects_total", kind=kind).value


def test_warm_jobs_open_no_backend_connection_and_parse_nothing():
    jobs = payloads()
    # No health probe may hold a node's pooled connection while the
    # idle counts below are read: the start-up probe is the only one.
    with LocalCluster(n_backends=2, gateway=True,
                      probe_interval=600.0) as cluster, \
            cluster.gateway_client() as client:
        cold = [client.detect(job) for job in jobs]
        router = cluster.router
        accepted0, misses0 = accepted(cluster), memo(router, "miss")
        fresh0, reused0 = connects(router, "fresh"), connects(router, "reused")
        gateway0 = cluster.gateway_handle.gateway.stats()["n_connections_accepted"]
        started = time.monotonic()
        for i in range(N_WARM):
            doc = client.detect(jobs[i % N_PAYLOADS])
            assert doc["cached"]
            assert doc["result"]["circles"] == cold[i % N_PAYLOADS]["result"]["circles"]
        # Parent commit: one connection per stream, ≥ N_WARM.
        assert accepted(cluster) - accepted0 <= 16
        assert connects(router, "fresh") - fresh0 <= 16
        # One backend request per payload: its first warm submit,
        # answered born done, carries the result, which the router
        # remembers and answers every later repeat from.  The slack is
        # health probes, one stats call per node per interval.
        requests = (connects(router, "fresh") - fresh0
                    + connects(router, "reused") - reused0)
        probes = cluster.n_backends * (
            (time.monotonic() - started) / cluster.probe_interval + 2)
        assert requests <= N_PAYLOADS + probes
        # Parse-thread submissions: one per distinct payload, all before.
        assert misses0 == N_PAYLOADS
        assert memo(router, "miss") == misses0
        assert memo(router, "hit") >= N_WARM
        # No SSE connection at all: each submit reply is born done and
        # answers its job's stream; the kept connection is already open.
        gateway = cluster.gateway_handle.gateway.stats()
        assert gateway["n_connections_accepted"] - gateway0 == 0
        snapshot = router.stats()
        assert snapshot["n_failovers"] == 0
        for node in snapshot["backends"]:
            assert 1 <= node["n_idle_connections"] <= MAX_IDLE_PER_NODE


def test_restarted_backend_behind_idle_connections_is_not_marked_down():
    job = scene_job(size=32, circles=2, strategy="intelligent",
                    iterations=80, seed=9)
    # No probe may fire inside the restart window: the kill must be
    # discovered (or rather, not discovered) by the next job alone.
    with LocalCluster(n_backends=2, probe_interval=600.0) as cluster:
        router = cluster.router
        with cluster.client() as client:
            ack = client.submit(job)
            first = client.collect(ack["job_id"])
            index = cluster.backend_index(ack["node"])
            before = router.stats()
            owner = before["backends"][index]
            assert owner["n_idle_connections"] >= 1
            cluster.kill_backend(index)
            cluster.revive_backend(index)
            ack2 = client.submit(job)
            second = client.collect(ack2["job_id"])
            after = router.stats()
        assert ack2["node"] == ack["node"]
        assert second.circles == first.circles
        assert after["n_failovers"] == before["n_failovers"] == 0
        assert after["backends"][index]["n_downs"] == 0
        assert after["backends"][index]["healthy"]
        assert router.obs.counter(
            "cluster_health_transitions_total",
            node=ack["node"], to="down").value == 0


def test_idle_connections_are_dropped_with_their_node():
    job = scene_job(size=32, circles=2, strategy="intelligent",
                    iterations=80, seed=9)
    with LocalCluster(n_backends=2, probe_interval=600.0) as cluster:
        router = cluster.router
        with cluster.client() as client:
            ack = client.submit(job)
            client.collect(ack["job_id"])
            index = cluster.backend_index(ack["node"])
            service = cluster.backends[index].handle.service
            assert router.stats()["backends"][index]["n_idle_connections"] >= 1
            assert service.stats()["n_connections_open"] >= 1
            router._loop.call_soon_threadsafe(
                router.pool.mark_down, ack["node"], "test: operator says so")
            deadline = time.monotonic() + 5.0
            while (service.stats()["n_connections_open"]
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert service.stats()["n_connections_open"] == 0
            assert router.stats()["backends"][index]["n_idle_connections"] == 0
