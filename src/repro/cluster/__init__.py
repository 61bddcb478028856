"""repro.cluster — the distributed layer over ``repro.service``.

Where :mod:`repro.service` turned the engine into *a* server, this
package turns N of those servers into *one*: a
:class:`~repro.cluster.router.ShardRouter` fronts the backends behind a
single address, speaking the same JSON-lines protocol, so every
existing client — :class:`~repro.service.client.ServiceClient`,
``repro detect --server`` — works against a cluster unchanged::

    # three backends (repro serve) + a router (repro cluster serve),
    # or everything at once in-process:
    from repro.cluster import LocalCluster
    from repro.service import scene_job

    with LocalCluster(n_backends=3) as cluster:
        with cluster.client() as client:
            out = client.detect(scene_job(size=64, circles=4, iterations=800))
            print(len(out.circles), "circles")

The pieces:

* :mod:`~repro.cluster.hashing` — rendezvous hashing: deterministic,
  minimal-churn key → node placement (cache affinity);
* :mod:`~repro.cluster.pool` — backend membership + health probes +
  demand-driven down-marking;
* :mod:`~repro.cluster.quota` — per-client token buckets rejecting with
  the retry-after backpressure shape;
* :mod:`~repro.cluster.router` — the shard router itself, a
  :class:`~repro.service.jobserver.JobServer` like each backend:
  routing, failover with excluded-node rehashing, stream proxying that
  survives backend death, restart replay;
* :mod:`~repro.cluster.local` — :class:`LocalCluster`, the in-process /
  subprocess harness the tests, smoke gate, and benchmarks drive.

The router's durable state — the job WAL it replays pending jobs from
and the index that keeps finished job ids answering status across
restarts — is :mod:`repro.service.store`, the same ``JobLog`` each
backend persists its pending jobs through.

Correctness contract (gated by ``scripts/cluster_smoke.py`` in CI): a
clustered detection is bit-identical to a direct ``engine.run()`` of
the same request — the cluster, like the service, is a transport, never
a source of numerical drift.
"""

from repro.cluster.hashing import node_score, rendezvous_choose, rendezvous_ranking
from repro.cluster.local import LocalCluster
from repro.cluster.pool import BackendNode, BackendPool
from repro.cluster.quota import QuotaPolicy, TokenBucket
from repro.cluster.router import (
    RouterHandle,
    RouterJob,
    ShardRouter,
    router_background,
    routing_key,
    serve_cluster_forever,
)

__all__ = [
    "node_score",
    "rendezvous_choose",
    "rendezvous_ranking",
    "LocalCluster",
    "BackendNode",
    "BackendPool",
    "QuotaPolicy",
    "TokenBucket",
    "RouterHandle",
    "RouterJob",
    "ShardRouter",
    "router_background",
    "routing_key",
    "serve_cluster_forever",
]
