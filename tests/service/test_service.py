"""Service lifecycle over real sockets: submit/stream/cancel, streamed
parity with direct engine runs, queue-full backpressure, cache hits
served without re-dispatch."""

import asyncio
import time

import pytest

from repro.bench.workloads import synthetic_workload
from repro.engine import ResultCache, run
from repro.errors import JobNotFoundError, QueueFullError, ServiceError
from repro.service import ServiceClient, scene_job, serve_background

SIZE = 64
CIRCLES = 4
ITERS = 300


def job_spec(seed=0, **extra):
    spec = scene_job(size=SIZE, circles=CIRCLES, strategy="intelligent",
                     iterations=ITERS, seed=seed)
    spec.update(extra)
    return spec


def reference(seed=0):
    workload = synthetic_workload(size=SIZE, n_circles=CIRCLES, seed=seed)
    return run(workload.request("intelligent", iterations=ITERS, seed=seed))


def wait_terminal(client, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = client.status(job_id)
        if doc["state"] in ("done", "failed", "cancelled"):
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached a terminal state")


@pytest.fixture
def service():
    handle = serve_background(workers=2, queue_size=8)
    yield handle
    handle.stop()


@pytest.fixture
def idle_service():
    """Accepts and queues but never dispatches: deterministic queue state."""
    handle = serve_background(workers=0, queue_size=2)
    yield handle
    handle.stop()


class TestSubmitAndStream:
    def test_streamed_result_matches_direct_run(self, service):
        ref = reference(seed=0)
        with ServiceClient(*service.address) as client:
            out = client.detect(job_spec(seed=0))
        assert sorted(out.circles) == sorted((c.x, c.y, c.r) for c in ref.circles)
        assert len(out.fragments) == len(ref.reports)
        assert not out.cached

    def test_stream_after_completion_replays_history(self, service):
        with ServiceClient(*service.address) as client:
            job_id = client.submit(job_spec(seed=1))["job_id"]
            wait_terminal(client, job_id)
            out = client.collect(job_id)  # attach late: history replay
        assert out.result is not None
        assert out.events[-1]["event"] == "result"

    def test_status_reports_progress_fields(self, service):
        with ServiceClient(*service.address) as client:
            job_id = client.submit(job_spec(seed=2))["job_id"]
            doc = wait_terminal(client, job_id)
        assert doc["state"] == "done"
        assert doc["n_events"] >= 2  # at least state + result
        assert doc["n_found"] >= 0

    def test_concurrent_submissions_all_complete(self, service):
        import concurrent.futures

        def drive(seed):
            with ServiceClient(*service.address) as client:
                return seed, client.detect(job_spec(seed=seed))

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            outs = dict(pool.map(drive, range(4)))
        for seed, out in outs.items():
            ref = reference(seed=seed)
            assert sorted(out.circles) == sorted(
                (c.x, c.y, c.r) for c in ref.circles
            ), f"seed {seed} diverged"

    def test_failing_job_streams_error(self, service):
        bad = job_spec(seed=3, options={"no_such_option": 1})
        with ServiceClient(*service.address) as client:
            job_id = client.submit(bad)["job_id"]
            with pytest.raises(ServiceError, match="no_such_option"):
                client.collect(job_id)
            assert client.status(job_id)["state"] == "failed"


class TestValidation:
    def test_malformed_spec_rejected_at_submit(self, service):
        with ServiceClient(*service.address) as client:
            with pytest.raises(ServiceError):
                client.submit({"strategy": "intelligent"})  # no image source
            with pytest.raises(ServiceError):
                client.submit(job_spec(seed=0, iterations="many"))

    def test_unknown_job_id(self, service):
        with ServiceClient(*service.address) as client:
            with pytest.raises(JobNotFoundError):
                client.status("job-does-not-exist")

    def test_ping_and_stats(self, service):
        with ServiceClient(*service.address) as client:
            assert client.ping()
            stats = client.stats()
        assert stats["workers"] == 2
        assert stats["queue_capacity"] == 8


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self, idle_service):
        with ServiceClient(*idle_service.address) as client:
            client.submit(job_spec(seed=0))
            client.submit(job_spec(seed=1))
            with pytest.raises(QueueFullError) as err:
                client.submit(job_spec(seed=2), max_attempts=1)
            assert err.value.retry_after > 0
            assert client.stats()["n_rejected"] == 1

    def test_cancel_frees_queue_slot(self, idle_service):
        with ServiceClient(*idle_service.address) as client:
            first = client.submit(job_spec(seed=0))["job_id"]
            client.submit(job_spec(seed=1))
            reply = client.cancel(first)
            assert reply["cancelled"]
            assert client.status(first)["state"] == "cancelled"
            client.submit(job_spec(seed=2))  # slot freed


class TestCancel:
    def test_cancel_queued_job_streams_cancelled(self, idle_service):
        with ServiceClient(*idle_service.address) as client:
            job_id = client.submit(job_spec(seed=0))["job_id"]
            client.cancel(job_id)
            events = list(client.stream(job_id))
        assert events[-1]["event"] == "cancelled"

    def test_cancel_terminal_job_is_idempotent(self, idle_service):
        with ServiceClient(*idle_service.address) as client:
            job_id = client.submit(job_spec(seed=0))["job_id"]
            client.cancel(job_id)
            again = client.cancel(job_id)
        assert again["state"] == "cancelled"
        assert again["cancelled"]

    def test_cancel_running_job_is_cooperative(self, service):
        # A multi-tile job with a big budget: cancellation lands at a
        # fragment boundary.  Either it wins (cancelled) or the job was
        # already past the last boundary (done) — both must be coherent.
        big = scene_job(size=96, circles=8, strategy="naive",
                        iterations=4000, seed=4,
                        options={"nx": 3, "ny": 3})
        with ServiceClient(*service.address) as client:
            job_id = client.submit(big)["job_id"]
            client.cancel(job_id)
            doc = wait_terminal(client, job_id)
            assert doc["state"] in ("cancelled", "done")
            events = list(client.stream(job_id))
            assert events[-1]["event"] in ("cancelled", "result")


class TestCacheIntegration:
    def test_cache_hit_served_without_redispatch(self):
        handle = serve_background(workers=2, queue_size=8, cache=ResultCache())
        try:
            with ServiceClient(*handle.address) as client:
                cold = client.detect(job_spec(seed=0))
                dispatched = client.stats()["n_dispatched"]
                warm = client.detect(job_spec(seed=0))
                assert warm.cached
                assert sorted(warm.circles) == sorted(cold.circles)
                assert client.stats()["n_dispatched"] == dispatched
                assert client.stats()["n_cache_hits"] == 1
        finally:
            handle.stop()

    def test_cached_job_id_is_immediately_terminal(self):
        handle = serve_background(workers=2, queue_size=8, cache=ResultCache())
        try:
            with ServiceClient(*handle.address) as client:
                client.detect(job_spec(seed=0))
                reply = client.submit(job_spec(seed=0))
                assert reply["cached"]
                assert reply["state"] == "done"
                out = client.collect(reply["job_id"])
                assert out.cached
        finally:
            handle.stop()

    def test_terminal_jobs_do_not_pin_request_or_raw(self, service):
        with ServiceClient(*service.address) as client:
            out = client.detect(job_spec(seed=0))
        job = service.service._jobs[out.job_id]
        assert job.request is None, "terminal jobs must drop the image"
        assert job.result is not None

    def test_different_seed_misses_cache(self):
        handle = serve_background(workers=2, queue_size=8, cache=ResultCache())
        try:
            with ServiceClient(*handle.address) as client:
                client.detect(job_spec(seed=0))
                other = client.detect(job_spec(seed=1))
                assert not other.cached
        finally:
            handle.stop()


class TestEmbeddingApi:
    def test_submit_from_foreign_thread_is_dispatched(self, service):
        # The sync embedding API is called from this (non-loop) thread;
        # admission must be marshalled onto the loop or the worker never
        # wakes (regression: put_nowait from a foreign thread).
        reply = service.service.submit(job_spec(seed=0))
        assert reply["ok"]
        with ServiceClient(*service.address) as client:
            doc = wait_terminal(client, reply["job_id"], timeout=30.0)
        assert doc["state"] == "done"

    def test_submit_on_the_loop_refuses_instead_of_deadlocking(self, service):
        async def on_loop():
            with pytest.raises(ServiceError, match="op_submit"):
                service.service.submit(job_spec(seed=0))

        asyncio.run_coroutine_threadsafe(
            on_loop(), service._loop).result(timeout=10)


class TestPriorities:
    def test_priority_order_observed_from_queue(self, idle_service):
        # workers=0: jobs stay queued, so ordering is inspectable via
        # the queue depth and admitted order is purely priority-driven
        # once a worker exists.  Here we at least verify priorities are
        # recorded and echoed.
        with ServiceClient(*idle_service.address) as client:
            job_id = client.submit(job_spec(seed=0), priority=7)["job_id"]
            assert client.status(job_id)["priority"] == 7

    def test_bad_priority_rejected(self, service):
        with ServiceClient(*service.address) as client:
            with pytest.raises(ServiceError):
                client.submit(job_spec(seed=0), priority="urgent")
