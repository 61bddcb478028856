"""A repeat cache hit stops at the router.

The first cache hit of a key teaches the router that key's result (the
owner's born-done ``terminal`` event); every later submit of the key is
answered from that memo with no backend call, no WAL record and no
digest — the same reply, TCP stream and SSE stream the owner's hit got.
Backend traffic is counted by wrapping the router's ``pool.request``,
which every backend call (submit, status, cancel, stream, probe) goes
through.
"""

import json
import time

import numpy as np
import pytest

from repro.cluster import LocalCluster, QuotaPolicy
from repro.cluster import router as router_module
from repro.cluster.router import RouterJob, ShardRouter, routing_key
from repro.errors import DeadlineExceededError, QuotaExceededError
from repro.imaging.image import Image
from repro.service import pixels_job

pytestmark = pytest.mark.fast


def inline_job(seed=0):
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:32, 0:32]
    disc = np.hypot(xs - 16, ys - 16) < 6
    image = Image(0.1 * rng.random((32, 32)) + 0.8 * disc)
    return pixels_job(image, strategy="intelligent", iterations=60, seed=seed)


def count_backend_requests(router):
    """Wrap *router*'s pool so every backend request's op is recorded."""
    ops = []
    original = router.pool.request

    def counting(node, msg, timeout):
        ops.append(msg.get("op"))
        return original(node, msg, timeout)

    router.pool.request = counting
    return ops


def cluster(**kwargs):
    # No health probe may add a backend request while one is counted.
    kwargs.setdefault("probe_interval", 600.0)
    return LocalCluster(n_backends=2, **kwargs)


def without_ids(doc):
    """*doc* as JSON with its per-job fields blanked (key order kept)."""
    return json.dumps({k: (None if k in ("job_id", "trace") else v)
                       for k, v in doc.items()})


def tcp_stream(client, job_id):
    ack = client._call({"op": "stream", "job_id": job_id})
    return [ack, client._read_line()]


def test_a_third_submit_is_answered_by_the_router_alone():
    job = inline_job()
    with cluster(gateway=True) as c, c.client() as client, \
            c.gateway_client() as gateway:
        router = c.router
        ops = count_backend_requests(router)
        client.detect(job)  # cold: fills the owner's cache
        first = client.submit(job)
        assert first["cached"] and "submit" in ops
        first_tcp = tcp_stream(client, first["job_id"])
        first_sse = list(gateway.stream_raw(first["job_id"]))
        before = list(ops)
        memo = client.submit(job)
        memo_tcp = tcp_stream(client, memo["job_id"])
        memo_sse = list(gateway.stream_raw(memo["job_id"]))
        status = client.status(memo["job_id"])
        cancel = client.cancel(memo["job_id"])
        assert ops == before  # not one backend request
        assert memo["job_id"] != first["job_id"]
        assert list(memo) == list(first)
        assert without_ids(memo) == without_ids(first)
        assert [without_ids(d) for d in memo_tcp] == \
            [without_ids(d) for d in first_tcp]
        assert [name for name, _ in memo_sse] == [name for name, _ in first_sse]
        assert without_ids(json.loads(memo_sse[0][1])) == \
            without_ids(json.loads(first_sse[0][1]))
        assert [data for _, data in memo_sse[1:]] == \
            [data for _, data in first_sse[1:]]
        assert status["state"] == "done" and status["cached"]
        assert status["digest"] == ShardRouter._digest_event(memo["terminal"])
        assert cancel["state"] == "done" and not cancel["cancelled"]
        entry = router.result_index.load()[memo["job_id"]]
    assert entry.state == "done"
    assert entry.digest == ShardRouter._digest_event(memo["terminal"])


def test_a_memo_hit_is_not_a_placement_and_is_counted_and_labelled():
    job = inline_job(seed=1)
    with cluster() as c, c.client() as client:
        router = c.router
        client.detect(job)
        client.submit(job)
        before = router.stats()
        memo = client.submit(job)
        after = router.stats()
        assert after["n_memo_hits"] == before["n_memo_hits"] + 1 == 1
        assert after["n_routed"] == before["n_routed"]
        assert after["n_affinity_hits"] == before["n_affinity_hits"]
        assert after["n_submitted"] == before["n_submitted"] + 1
        families = client.metrics()["metrics"]
        assert "cluster_memo_hits_total" in json.dumps(families)
        assert router.obs.counter("cluster_memo_hits_total").value == 1
        doc = client.trace(job_id=memo["job_id"])
    submits = [s for s in doc["spans"] if s["name"] == "cluster.submit"]
    assert len(submits) == 1
    assert submits[0]["labels"]["answered"] == "router"
    assert not [s for s in doc["spans"] if s["name"].startswith("service.")]
    assert doc["nodes"] == []


def test_a_memo_hit_writes_no_wal_record():
    job = inline_job(seed=2)
    with cluster() as c, c.client() as client:
        router = c.router
        client.detect(job)
        client.submit(job)
        appended = router.job_log.n_appended
        memo = client.submit(job)
        assert router._jobs[memo["job_id"]].memo_hit
        assert router.job_log.n_appended == appended


def test_a_spent_deadline_is_shed_and_quota_is_charged():
    job = inline_job(seed=3)
    with cluster(quota=QuotaPolicy(rate=0.001, burst=4)) as c, \
            c.client(client_id="tenant") as client:
        router = c.router
        client.detect(job)  # token 1
        client.submit(job)  # token 2: the memo's first hit
        ops = count_backend_requests(router)
        with pytest.raises(DeadlineExceededError):
            client._call({"op": "submit", "job": job, "deadline": 0.0,
                          "client": "tenant"})  # token 3
        shed = [j for j in router._jobs.values() if j.state == "failed"]
        assert len(shed) == 1 and not shed[0].memo_hit
        assert client.submit(job)["cached"]  # token 4: a memo hit
        assert ops == []
        with pytest.raises(QuotaExceededError):
            client.submit(job, max_attempts=1)
        assert router.stats()["n_memo_hits"] == 1


def test_a_memo_hit_answers_with_every_backend_down():
    job = inline_job(seed=4)
    with cluster() as c, c.client() as client:
        router = c.router
        cold = client.detect(job)
        client.submit(job)
        for i in range(c.n_backends):
            node_id = c.kill_backend(i)
            router._loop.call_soon_threadsafe(
                router.pool.mark_down, node_id, "test: killed")
        deadline = time.monotonic() + 5.0
        while router.pool.healthy_ids():
            assert time.monotonic() < deadline
            time.sleep(0.02)
        warm = client.detect(job)
    assert warm.circles == cold.circles


def test_the_memo_is_bounded_and_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(router_module, "RESULT_MEMO_CAPACITY", 2)
    a, b, d = (inline_job(seed) for seed in (5, 6, 7))
    with cluster() as c, c.client() as client:
        router = c.router
        keys = {}
        for job in (a, b, d):
            client.detect(job)
        for name, job in (("a", a), ("b", b)):
            client.submit(job)  # first hits fill the memo
            keys[name] = routing_key(job)
        ops = count_backend_requests(router)
        client.submit(a)  # memo hit: a is now the most recent
        assert ops == []
        client.submit(d)  # first hit of d evicts b, not a
        keys["d"] = routing_key(d)
        assert list(router._result_memo) == [keys["a"], keys["d"]]
        ops.clear()
        client.submit(b)
        assert ops == ["submit"]
        assert len(router._result_memo) == 2


def test_what_is_never_memoised_still_reaches_a_backend():
    job, polled = inline_job(seed=8), inline_job(seed=9)
    entropy = {**inline_job(seed=11), "seed": None}
    with cluster() as c, c.client() as client:
        router = c.router
        ops = count_backend_requests(router)
        client.detect(job)  # a cold completion: cached false
        ops.clear()
        assert client.submit(job)["cached"]
        assert ops == ["submit"]
        # A completion seen only in a status document.
        ack = client.submit(polled)
        deadline = time.monotonic() + 10.0
        while client.status(ack["job_id"])["state"] != "done":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        ops.clear()
        assert client.submit(polled)["cached"]
        assert ops == ["submit"]
        # Uncacheable specs: every submit runs on a backend.
        for _ in range(2):
            ops.clear()
            assert not client.submit(entropy)["cached"]
            assert ops == ["submit"]
        assert len(router._result_memo) == 2


def test_failed_cancelled_and_status_only_jobs_fill_no_memo():
    router = ShardRouter(["127.0.0.1:1"])
    result = {"event": "result", "cached": True, "result": {}}
    for state, event, digest in (
            ("failed", {"event": "error", "error": "boom"}, "d"),
            ("cancelled", {"event": "cancelled"}, "d"),
            ("done", None, None)):  # status-only: no event, no digest
        job = RouterJob(rid="cjob-x", spec={}, key="k", state=state,
                        node_id="n", terminal_event=event,
                        result_digest=digest)
        router._memoise(job)
    assert len(router._result_memo) == 0
    router._memoise(RouterJob(rid="cjob-y", spec={}, key="k", state="done",
                              node_id="n", terminal_event=result,
                              result_digest="d"))
    assert router._result_memo["k"] == (result, "d", "n")


def test_after_a_router_restart_the_first_repeat_reaches_a_backend():
    job = inline_job(seed=10)
    with cluster() as c, c.client() as client:
        client.detect(job)
        client.submit(job)
        client.submit(job)
        assert c.router.stats()["n_memo_hits"] == 1
        c.restart_router()
        router = c.router
        restored = [j for j in router._jobs.values() if j.restored]
        assert restored and not router._result_memo
        ops = count_backend_requests(router)
        with c.client() as fresh:
            assert fresh.submit(job)["cached"]
            assert ops == ["submit"]
            assert fresh.submit(job)["cached"]
        assert ops == ["submit"]
        assert router.stats()["n_memo_hits"] == 1
