#!/usr/bin/env python
"""CI cluster guard: clustered results must match direct engine runs.

Starts a 3-backend :class:`~repro.cluster.local.LocalCluster` (thread
mode — determinism over throughput; ``ledger/run.py`` covers speed)
and asserts the cluster layer's whole correctness contract:

1. for all four strategies, a detection routed through the shard router
   is bit-identical to a direct ``engine.run()`` of the same request;
2. resubmitting a job lands on the same backend and is answered from
   its cache (affinity), still bit-identical;
3. a backend killed mid-stream triggers failover and the job completes
   bit-identically on another node;
4. a router restart with a pending job replays it from the JobLog under
   the client's original job id;
5. per-client quotas reject over-limit submitters with ``retry_after``.

Exit status is non-zero on any violation.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workloads import synthetic_workload  # noqa: E402
from repro.cluster import LocalCluster, QuotaPolicy  # noqa: E402
from repro.engine import run  # noqa: E402
from repro.errors import QuotaExceededError  # noqa: E402
from repro.service import scene_job  # noqa: E402

SIZE = 64
CIRCLES = 4
ITERATIONS = 400
STRATEGIES = ("naive", "blind", "intelligent", "periodic")

SLOW = dict(size=96, circles=8, strategy="naive", iterations=6000, seed=4,
            options={"nx": 3, "ny": 3})


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def reference_circles(strategy: str, seed: int, size=SIZE, circles=CIRCLES,
                      iterations=ITERATIONS, options=None):
    workload = synthetic_workload(size=size, n_circles=circles, seed=seed)
    result = run(workload.request(strategy, iterations=iterations, seed=seed,
                                  options=options))
    return sorted((c.x, c.y, c.r) for c in result.circles)


def main() -> int:
    with LocalCluster(n_backends=3, mode="thread", workers=1) as cluster:
        host, port = cluster.address
        print(f"cluster: router {host}:{port} over "
              f"{len(cluster.backends)} backends")

        # 1. four-strategy bit-parity through the router
        for strategy in STRATEGIES:
            with cluster.client() as client:
                out = client.detect(scene_job(
                    size=SIZE, circles=CIRCLES, strategy=strategy,
                    iterations=ITERATIONS, seed=1,
                ))
            check(sorted(out.circles) == reference_circles(strategy, seed=1),
                  f"{strategy}: clustered result bit-identical to engine.run()")

        # 2. affinity: the repeat is a cache hit on the owning node
        with cluster.client() as client:
            warm = client.detect(scene_job(
                size=SIZE, circles=CIRCLES, strategy="intelligent",
                iterations=ITERATIONS, seed=1,
            ))
            stats = client.stats()
        check(warm.cached, "repeat request answered from the owner's cache")
        check(stats["n_affinity_hits"] >= 1,
              f"router counted {stats['n_affinity_hits']} affinity hit(s)")

        # 3. kill a backend mid-stream; the job must still complete
        with cluster.client() as client:
            reply = client.submit(scene_job(**SLOW))
            rid, node = reply["job_id"], reply["node"]
            index = cluster.backend_index(node)
            killed = threading.Event()

            def killer() -> None:
                time.sleep(0.3)
                cluster.kill_backend(index)
                killed.set()

            threading.Thread(target=killer, daemon=True).start()
            out = client.collect(rid)
            stats = client.stats()
        check(killed.is_set(), "backend was killed while the job streamed")
        expected = reference_circles(
            SLOW["strategy"], seed=SLOW["seed"], size=SLOW["size"],
            circles=SLOW["circles"], iterations=SLOW["iterations"],
            options=SLOW["options"],
        )
        check(sorted(out.circles) == expected,
              "failover result still bit-identical "
              f"({stats['n_failovers']} failover(s))")

        # 4. router restart with a pending job: JobLog replay.  A fresh
        # seed, or the submit would be a cache hit (instantly complete,
        # nothing pending) — content addressing is thorough like that.
        pending = dict(SLOW, seed=5)
        with cluster.client() as client:
            rid = client.submit(scene_job(**pending))["job_id"]
        cluster.restart_router()
        with cluster.client() as client:
            replayed = client.stats()["n_replayed"]
            out = client.collect(rid)
        check(replayed >= 1, f"restarted router replayed {replayed} job(s)")
        expected5 = reference_circles(
            pending["strategy"], seed=pending["seed"], size=pending["size"],
            circles=pending["circles"], iterations=pending["iterations"],
            options=pending["options"],
        )
        check(sorted(out.circles) == expected5,
              "replayed job completed bit-identically under its original id")

    # 5. quotas: over-limit client rejected with retry_after
    quota = QuotaPolicy(rate=0.5, burst=2)
    with LocalCluster(n_backends=2, mode="thread", workers=1,
                      router_log=False, quota=quota) as cluster:
        with cluster.client() as client:
            client.submit(scene_job(size=SIZE, circles=CIRCLES,
                                    iterations=ITERATIONS, seed=10),
                          max_attempts=1)
            client.submit(scene_job(size=SIZE, circles=CIRCLES,
                                    iterations=ITERATIONS, seed=11),
                          max_attempts=1)
            try:
                client.submit(scene_job(size=SIZE, circles=CIRCLES,
                                        iterations=ITERATIONS, seed=12),
                              max_attempts=1)
            except QuotaExceededError as exc:
                check(exc.retry_after > 0,
                      f"quota rejection carried retry_after="
                      f"{exc.retry_after:.2f}s")
            else:
                check(False, "third rapid submission should exceed the quota")

    print("cluster smoke: routing, affinity, failover, replay, quotas agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
