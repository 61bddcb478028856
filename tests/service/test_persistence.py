"""Service-side durability and quotas: job-log replay across restarts,
per-client token buckets, and the client's resilience contracts."""

import threading
import time

import pytest

from repro.bench.workloads import synthetic_workload
from repro.cluster import QuotaPolicy
from repro.engine import run
from repro.errors import QuotaExceededError, ServiceUnavailableError
from repro.service import ServiceClient, scene_job, serve_background
from repro.service.store import JobLog

SIZE = 64
CIRCLES = 4
ITERS = 300


def job_spec(seed=0, **extra):
    spec = scene_job(size=SIZE, circles=CIRCLES, strategy="intelligent",
                     iterations=ITERS, seed=seed)
    spec.update(extra)
    return spec


def reference_circles(seed=0):
    workload = synthetic_workload(size=SIZE, n_circles=CIRCLES, seed=seed)
    result = run(workload.request("intelligent", iterations=ITERS, seed=seed))
    return sorted((c.x, c.y, c.r) for c in result.circles)


def wait_done(client, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = client.status(job_id)
        if doc["state"] in ("done", "failed", "cancelled"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestServiceJobLogReplay:
    def test_pending_jobs_survive_restart_under_original_ids(self, tmp_path):
        wal = tmp_path / "svc.wal"
        # Phase 1: accept but never dispatch (workers=0) — jobs stay
        # pending in the WAL when the service dies.
        handle = serve_background(workers=0, queue_size=8, job_log=str(wal))
        with ServiceClient(*handle.address) as client:
            ids = [client.submit(job_spec(seed=s))["job_id"] for s in (0, 1)]
        handle.stop()
        assert JobLog(wal).replay().n_pending == 2

        # Phase 2: same log, working service — the jobs replay, run,
        # and complete under the ids the client already holds.
        handle = serve_background(workers=2, queue_size=8, job_log=str(wal))
        try:
            assert handle.service.n_replayed == 2
            with ServiceClient(*handle.address) as client:
                for seed, job_id in zip((0, 1), ids):
                    doc = wait_done(client, job_id)
                    assert doc["state"] == "done"
                    out = client.collect(job_id)
                    assert sorted(out.circles) == reference_circles(seed)
        finally:
            handle.stop()
        assert JobLog(wal).replay().n_pending == 0

    def test_completed_jobs_do_not_replay(self, tmp_path):
        wal = tmp_path / "svc.wal"
        handle = serve_background(workers=2, queue_size=8, job_log=str(wal))
        with ServiceClient(*handle.address) as client:
            out = client.detect(job_spec(seed=2))
            assert out.result is not None
        handle.stop()
        handle = serve_background(workers=2, queue_size=8, job_log=str(wal))
        try:
            assert handle.service.n_replayed == 0
        finally:
            handle.stop()

    def test_cache_hits_are_never_logged_as_pending(self, tmp_path):
        from repro.engine import ResultCache

        wal = tmp_path / "svc.wal"
        handle = serve_background(workers=2, queue_size=8, job_log=str(wal),
                                  cache=ResultCache())
        try:
            with ServiceClient(*handle.address) as client:
                client.detect(job_spec(seed=3))
                reply = client.submit(job_spec(seed=3))
                assert reply["cached"]
        finally:
            handle.stop()
        assert JobLog(wal).replay().n_pending == 0

    def test_stats_surface_reports_durability(self, tmp_path):
        handle = serve_background(workers=1, queue_size=4,
                                  job_log=str(tmp_path / "svc.wal"),
                                  node_id="backend-7")
        try:
            with ServiceClient(*handle.address) as client:
                stats = client.stats()
            assert stats["role"] == "service"
            assert stats["node_id"] == "backend-7"
            assert stats["job_log"]["path"].endswith("svc.wal")
            assert stats["uptime_seconds"] >= 0
        finally:
            handle.stop()


class TestServiceQuota:
    def test_over_limit_submit_rejected_with_retry_after(self):
        handle = serve_background(workers=1, queue_size=8,
                                  quota=QuotaPolicy(rate=0.5, burst=1))
        try:
            with ServiceClient(*handle.address, client_id="c1") as client:
                client.submit(job_spec(seed=4), max_attempts=1)
                with pytest.raises(QuotaExceededError) as err:
                    client.submit(job_spec(seed=5), max_attempts=1)
                assert err.value.retry_after > 0
        finally:
            handle.stop()

    def test_embedding_submit_also_quota_checked(self):
        handle = serve_background(workers=1, queue_size=8,
                                  quota=QuotaPolicy(rate=0.5, burst=1))
        try:
            handle.service.submit(job_spec(seed=6), client="emb")
            with pytest.raises(QuotaExceededError):
                handle.service.submit(job_spec(seed=7), client="emb")
        finally:
            handle.stop()


class TestClientResilience:
    def test_submit_retries_backpressure_until_capacity_frees(self):
        handle = serve_background(workers=0, queue_size=1)
        try:
            with ServiceClient(*handle.address) as client:
                first = client.submit(job_spec(seed=8))["job_id"]

                def free_slot():
                    time.sleep(0.4)
                    with ServiceClient(*handle.address) as other:
                        other.cancel(first)

                threading.Thread(target=free_slot, daemon=True).start()
                # Queue is full now; the bounded retry sleeps retry_after
                # and lands once the canceller frees the slot.
                reply = client.submit(job_spec(seed=9), max_attempts=8)
            assert reply["ok"]
        finally:
            handle.stop()

    def test_reconnect_after_server_restart_on_same_port(self):
        handle = serve_background(workers=1, queue_size=4)
        host, port = handle.address
        client = ServiceClient(host, port, reconnect_attempts=6)
        try:
            assert client.ping()
            handle.stop()
            handle = serve_background(workers=1, queue_size=4,
                                      host=host, port=port)
            # Same socket object is dead; _roundtrip reconnects.
            assert client.ping()
        finally:
            client.close()
            handle.stop()

    def test_reconnect_budget_zero_surfaces_unavailable(self):
        handle = serve_background(workers=1, queue_size=4)
        host, port = handle.address
        client = ServiceClient(host, port, reconnect_attempts=0)
        try:
            assert client.ping()
            handle.stop()
            with pytest.raises(ServiceUnavailableError):
                client.ping()
        finally:
            client.close()
