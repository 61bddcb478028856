"""LocalCluster integration: parity, affinity, failover, restart, quotas.

Thread-mode backends throughout — deterministic, fast, and a killed
backend still looks dead on the wire (its sockets close), which is all
the router's failover path observes.
"""

import threading
import time

import pytest

from repro.bench.workloads import synthetic_workload
from repro.cluster import LocalCluster, QuotaPolicy
from repro.engine import run
from repro.errors import QuotaExceededError, ServiceError
from repro.service import ServiceClient, scene_job

SIZE = 64
CIRCLES = 4
ITERS = 300

#: A deliberately slow multi-fragment job for mid-stream fault injection.
SLOW = dict(size=96, circles=8, strategy="naive", iterations=6000, seed=4,
            options={"nx": 3, "ny": 3})


def job_spec(seed=0, strategy="intelligent", **extra):
    spec = scene_job(size=SIZE, circles=CIRCLES, strategy=strategy,
                     iterations=ITERS, seed=seed)
    spec.update(extra)
    return spec


def reference_circles(seed=0, strategy="intelligent", size=SIZE,
                      circles=CIRCLES, iterations=ITERS, options=None):
    workload = synthetic_workload(size=size, n_circles=circles, seed=seed)
    result = run(workload.request(strategy, iterations=iterations, seed=seed,
                                  options=options))
    return sorted((c.x, c.y, c.r) for c in result.circles)


@pytest.fixture(scope="module")
def cluster():
    """A shared 3-backend cluster for the non-destructive tests."""
    with LocalCluster(n_backends=3, mode="thread", workers=1,
                      router_log=False) as cluster:
        yield cluster


class TestParity:
    @pytest.mark.parametrize(
        "strategy", ["naive", "blind", "intelligent", "periodic"]
    )
    def test_clustered_result_bit_identical_to_direct_run(self, cluster, strategy):
        with cluster.client() as client:
            out = client.detect(job_spec(seed=3, strategy=strategy))
        assert sorted(out.circles) == reference_circles(seed=3, strategy=strategy)

    def test_router_speaks_the_service_protocol(self, cluster):
        with cluster.client() as client:
            assert client.ping()
            stats = client.stats()
        assert stats["role"] == "router"
        assert stats["n_backends_healthy"] == 3


class TestAffinity:
    def test_repeat_request_hits_the_owning_nodes_cache(self, cluster):
        with cluster.client() as client:
            cold = client.detect(job_spec(seed=21))
            assert not cold.cached
            warm = client.detect(job_spec(seed=21))
            assert warm.cached
            assert sorted(warm.circles) == sorted(cold.circles)

    def test_route_is_deterministic_and_key_addressed(self, cluster):
        with cluster.client() as client:
            first = client.route(job_spec(seed=22))
            second = client.route(job_spec(seed=22))
            other = client.route(job_spec(seed=23))
        assert first == second
        assert first["node"] in cluster.backend_addresses
        assert first["key"] != other["key"]

    def test_distinct_jobs_spread_over_backends(self, cluster):
        with cluster.client() as client:
            owners = {client.route(job_spec(seed=s))["node"] for s in range(40, 60)}
        assert len(owners) > 1, "20 distinct keys all routed to one node"


class TestFailover:
    # ~6.5 s: a 6,000-iteration job whose backend dies mid-stream must still finish exactly.
    def test_kill_backend_mid_stream_job_still_completes(self):
        with LocalCluster(n_backends=3, mode="thread", workers=1) as cluster:
            with cluster.client() as client:
                reply = client.submit(scene_job(**SLOW))
                rid, node = reply["job_id"], reply["node"]
                index = cluster.backend_index(node)
                killed = threading.Event()

                def killer():
                    time.sleep(0.3)
                    cluster.kill_backend(index)
                    killed.set()

                threading.Thread(target=killer, daemon=True).start()
                out = client.collect(rid)
                assert killed.is_set(), "job finished before the kill fired"
                stats = client.stats()
            expected = reference_circles(
                seed=SLOW["seed"], strategy=SLOW["strategy"],
                size=SLOW["size"], circles=SLOW["circles"],
                iterations=SLOW["iterations"], options=SLOW["options"],
            )
            assert sorted(out.circles) == expected
            assert stats["n_failovers"] >= 1
            assert stats["n_backends_healthy"] == 2

    # ~3 s: the lost job reruns from scratch: one full 6,000-iteration chain.
    def test_status_polling_recovers_a_lost_job(self):
        with LocalCluster(n_backends=2, mode="thread", workers=1) as cluster:
            with cluster.client() as client:
                reply = client.submit(scene_job(**SLOW))
                rid = reply["job_id"]
                cluster.kill_backend(cluster.backend_index(reply["node"]))
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    doc = client.status(rid)
                    if doc["state"] == "done":
                        break
                    time.sleep(0.1)
                assert doc["state"] == "done"

    def test_leave_keeps_survivors_keys_stable(self):
        """Killing one backend moves only that backend's keys — the
        live counterpart of the hashing-level churn property."""
        with LocalCluster(n_backends=3, mode="thread", workers=1) as cluster:
            with cluster.client() as client:
                before = {
                    seed: client.route(job_spec(seed=seed))["node"]
                    for seed in range(70, 90)
                }
                victim = cluster.node_id(0)
                cluster.kill_backend(0)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if client.stats()["n_backends_healthy"] == 2:
                        break
                    time.sleep(0.1)
                for seed, owner in before.items():
                    after = client.route(job_spec(seed=seed))["node"]
                    if owner == victim:
                        assert after != victim
                    else:
                        assert after == owner, f"stable key moved {owner}->{after}"

    def test_all_backends_dead_rejects_cleanly(self):
        with LocalCluster(n_backends=1, mode="thread", workers=1) as cluster:
            cluster.kill_backend(0)
            with cluster.client() as client:
                with pytest.raises(ServiceError, match="no healthy backends"):
                    client.submit(job_spec(seed=1), max_attempts=1)
            # The rejected submit must not linger in the WAL: a restart
            # would otherwise run a job the client was told failed.
            from repro.service.store import JobLog

            assert JobLog(cluster.router_log_path).replay().n_pending == 0


class TestRouterRestart:
    # ~8 s: router restart + a 6,000-iteration job; replay must keep its id and exact circles.
    def test_pending_jobs_replayed_under_original_ids(self):
        with LocalCluster(n_backends=3, mode="thread", workers=1) as cluster:
            with cluster.client() as client:
                rid = client.submit(scene_job(**SLOW))["job_id"]
            cluster.restart_router()
            with cluster.client() as client:
                assert client.stats()["n_replayed"] >= 1
                out = client.collect(rid)  # same id, new router
            expected = reference_circles(
                seed=SLOW["seed"], strategy=SLOW["strategy"],
                size=SLOW["size"], circles=SLOW["circles"],
                iterations=SLOW["iterations"], options=SLOW["options"],
            )
            assert sorted(out.circles) == expected

    # ~8 s: the same job, restarted mid-stream; the reconnecting client gets exact circles.
    def test_streaming_client_survives_router_restart(self):
        with LocalCluster(n_backends=3, mode="thread", workers=1) as cluster:
            host, port = cluster.address
            with ServiceClient(host, port, reconnect_attempts=6) as client:
                rid = client.submit(scene_job(**SLOW))["job_id"]

                def restarter():
                    time.sleep(0.3)
                    cluster.restart_router()

                thread = threading.Thread(target=restarter, daemon=True)
                thread.start()
                out = client.collect(rid)
                thread.join()
            assert out.result is not None
            expected = reference_circles(
                seed=SLOW["seed"], strategy=SLOW["strategy"],
                size=SLOW["size"], circles=SLOW["circles"],
                iterations=SLOW["iterations"], options=SLOW["options"],
            )
            assert sorted(out.circles) == expected

    def test_completed_jobs_are_not_replayed(self):
        with LocalCluster(n_backends=2, mode="thread", workers=1) as cluster:
            with cluster.client() as client:
                client.detect(job_spec(seed=31))
            cluster.restart_router()
            with cluster.client() as client:
                assert client.stats()["n_replayed"] == 0


class TestQuota:
    def test_quota_exhaustion_returns_retry_after(self):
        quota = QuotaPolicy(rate=0.5, burst=2)
        with LocalCluster(n_backends=2, mode="thread", workers=1,
                          router_log=False, quota=quota) as cluster:
            with cluster.client() as client:
                client.submit(job_spec(seed=40), max_attempts=1)
                client.submit(job_spec(seed=41), max_attempts=1)
                with pytest.raises(QuotaExceededError) as err:
                    client.submit(job_spec(seed=42), max_attempts=1)
            assert err.value.retry_after > 0

    def test_submit_waits_out_the_quota_automatically(self):
        quota = QuotaPolicy(rate=4.0, burst=1)
        with LocalCluster(n_backends=2, mode="thread", workers=1,
                          router_log=False, quota=quota) as cluster:
            with cluster.client() as client:
                client.submit(job_spec(seed=43))
                # Bucket empty; the default bounded retry sleeps the
                # ~0.25s hint and succeeds without surfacing the error.
                reply = client.submit(job_spec(seed=44))
            assert reply["ok"]

    def test_quota_is_per_client(self):
        quota = QuotaPolicy(rate=0.5, burst=1)
        with LocalCluster(n_backends=2, mode="thread", workers=1,
                          router_log=False, quota=quota) as cluster:
            host, port = cluster.address
            with ServiceClient(host, port, client_id="alice") as alice, \
                    ServiceClient(host, port, client_id="bob") as bob:
                alice.submit(job_spec(seed=45), max_attempts=1)
                with pytest.raises(QuotaExceededError):
                    alice.submit(job_spec(seed=46), max_attempts=1)
                bob.submit(job_spec(seed=47), max_attempts=1)
