"""Backend membership and health for the shard router.

A :class:`BackendPool` holds the cluster's member list — one
:class:`BackendNode` per ``repro.service`` backend — and keeps each
node's health current two ways:

* **periodic probes**: every ``probe_interval`` seconds the pool sends
  each node an ``op: stats`` request (the service's cheapest op that
  still exercises the full protocol loop) and records the reply; a
  timeout or connection failure marks the node down, a later success
  marks it back up — recovery is automatic, no operator action;
* **demand signals**: the router calls :meth:`mark_down` the moment a
  forwarded request hits a dead socket, so failover never waits out a
  probe interval.

The pool never decides placement — that is rendezvous hashing's job
(:mod:`repro.cluster.hashing`); it only answers "who is alive" and
keeps the per-node accounting the stats surface reports.

It also owns the router's **connections** to its members: a bounded
stack of idle JSON-lines connections per node that request/reply calls,
event streams and probes all borrow (:meth:`BackendPool.request`) and
hand back once the wire is clean again (:meth:`BackendPool.release`) —
a steady stream of jobs costs a backend no new connection at all.  An
idle connection can outlive the process behind it (same-port restart),
so an error on a *reused* connection is not a verdict on the node: it is
closed with everything else idle and the request retried once on a
fresh connection; only that one failing is :class:`BackendDown`.  Idle
connections are dropped when their node is marked down or removed, and
by :meth:`BackendPool.drop_idle` when the router stops.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ClusterError, ServiceError
from repro.service.policy import RetryPolicy, RetryState
from repro.service.protocol import MAX_LINE_BYTES, decode_line, encode_line

__all__ = ["BackendDown", "BackendNode", "BackendPool", "parse_address"]

#: Idle connections kept per backend; a burst that borrows more closes
#: the surplus on return.
MAX_IDLE_PER_NODE = 8

Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class BackendDown(Exception):
    """A forwarded request found no live backend behind the address: a
    fresh connection failed, or no reply came within the timeout."""


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` (or a ready tuple) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, _, port = str(address).rpartition(":")
    if not host or not port.isdigit():
        raise ClusterError(f"backend addresses are HOST:PORT, got {address!r}")
    return host, int(port)


@dataclass
class BackendNode:
    """One backend service as the pool sees it."""

    node_id: str  #: canonical "host:port" — also the rendezvous hash id
    host: str
    port: int
    healthy: bool = True
    draining: bool = False  #: excluded from new placement, serving old work
    n_assigned: int = 0  #: jobs this router routed here
    n_probes: int = 0
    n_failures: int = 0  #: probe/forward failures observed
    n_downs: int = 0  #: times the node transitioned healthy → down
    n_active_streams: int = 0  #: live stream proxies reading from this node
    last_probe_at: Optional[float] = None
    #: Last successful stats round-trip time, seconds — the trace
    #: assembler's clock-skew bound when re-basing backend span
    #: timestamps onto the router's clock.
    probe_rtt: Optional[float] = None
    last_error: Optional[str] = None
    last_stats: Optional[Dict[str, Any]] = field(default=None, repr=False)
    #: Backoff bookkeeping while the node is down: probes of a dead
    #: node decay toward the policy's max delay instead of hammering
    #: the corpse every interval.
    retry_state: Optional[RetryState] = field(default=None, repr=False)
    next_probe_at: float = 0.0  #: monotonic; 0 = due immediately

    def snapshot(self) -> Dict[str, Any]:
        queue_depth = None
        cache_hit_rate = None
        if isinstance(self.last_stats, dict):
            queue_depth = self.last_stats.get("queue_depth")
            cache_hit_rate = self.last_stats.get("cache_hit_rate")
        return {
            "node_id": self.node_id,
            "healthy": self.healthy,
            "draining": self.draining,
            "n_assigned": self.n_assigned,
            "n_probes": self.n_probes,
            "n_failures": self.n_failures,
            "n_downs": self.n_downs,
            "n_active_streams": self.n_active_streams,
            "queue_depth": queue_depth,
            "cache_hit_rate": cache_hit_rate,
            "last_error": self.last_error,
        }


class BackendPool:
    """Health-tracked membership over a fixed set of backend addresses.

    Membership changes at runtime go through :meth:`add` / :meth:`remove`
    (the node-join/leave path the affinity tests exercise); day-to-day
    churn — crashes and recoveries — is just health flapping on a stable
    member list.
    """

    def __init__(
        self,
        addresses: Sequence[Union[str, Tuple[str, int]]],
        probe_interval: float = 2.0,
        probe_timeout: float = 5.0,
        obs: Any = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if not addresses:
            raise ClusterError("a backend pool needs at least one backend address")
        if probe_interval <= 0 or probe_timeout <= 0:
            raise ClusterError("probe_interval and probe_timeout must be positive")
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        #: Paces re-probes of *down* nodes: unlimited attempts (a node
        #: may come back any time), decorrelated jitter from one probe
        #: interval out to 8x, so a dead backend costs O(log) probes
        #: instead of one per interval forever.
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=None,
            base_delay=probe_interval,
            max_delay=probe_interval * 8,
        )
        #: Optional :class:`repro.obs.MetricsRegistry` receiving
        #: per-node health-transition counters (the router passes its own).
        self.obs = obs
        self.nodes: Dict[str, BackendNode] = {}
        for address in addresses:
            self.add(address)
        self._probe_task: Optional[asyncio.Task] = None
        self._idle: Dict[str, List[Connection]] = {}

    # -- membership ------------------------------------------------------------
    def add(self, address: Union[str, Tuple[str, int]]) -> BackendNode:
        host, port = parse_address(address)
        node_id = f"{host}:{port}"
        if node_id in self.nodes:
            raise ClusterError(f"backend {node_id} is already in the pool")
        node = BackendNode(node_id=node_id, host=host, port=port)
        self.nodes[node_id] = node
        return node

    def remove(self, node_id: str) -> BackendNode:
        node = self.nodes.pop(node_id, None)
        if node is None:
            raise ClusterError(f"unknown backend {node_id!r}")
        self.drop_idle(node_id)
        return node

    def node(self, node_id: str) -> BackendNode:
        node = self.nodes.get(node_id)
        if node is None:
            raise ClusterError(f"unknown backend {node_id!r}")
        return node

    def drain(self, node_id: str) -> BackendNode:
        """Mark a node draining: no *new* placements land on it, but
        existing assignments (and their live streams) keep running.
        The control plane removes the node once its streams finish."""
        node = self.node(node_id)
        node.draining = True
        return node

    def healthy_ids(self) -> List[str]:
        """Nodes eligible for *new* placement: healthy and not draining."""
        return [
            nid for nid, node in self.nodes.items()
            if node.healthy and not node.draining
        ]

    def is_healthy(self, node_id: str) -> bool:
        node = self.nodes.get(node_id)
        return node is not None and node.healthy

    # -- health ----------------------------------------------------------------
    def _count_transition(self, node_id: str, to: str) -> None:
        if self.obs is None:
            return
        self.obs.counter(
            "cluster_health_transitions_total",
            help="Backend health transitions observed by this router.",
            node=node_id,
            to=to,
        ).inc()

    def mark_down(self, node_id: str, reason: str) -> None:
        node = self.nodes.get(node_id)
        if node is None:
            return
        node.n_failures += 1
        node.last_error = reason
        if node.healthy:
            node.healthy = False
            node.n_downs += 1
            self._count_transition(node_id, "down")
        self.drop_idle(node_id)
        # Schedule the next probe of this (now confirmed-dead) node on
        # the policy's backoff instead of the flat interval.
        if node.retry_state is None:
            node.retry_state = self.retry_policy.start(op="pool.probe")
        try:
            delay = node.retry_state.next_delay()
        except ServiceError:
            # A bounded custom policy ran out of attempts: keep probing
            # at the slowest cadence — membership is static, so "give
            # up forever" is never right for a pool node.
            delay = self.retry_policy.max_delay
        node.next_probe_at = time.monotonic() + delay

    def mark_up(self, node_id: str) -> None:
        node = self.nodes.get(node_id)
        if node is not None:
            if not node.healthy:
                self._count_transition(node_id, "up")
            node.healthy = True
            node.last_error = None
            node.retry_state = None
            node.next_probe_at = 0.0

    # -- connections -----------------------------------------------------------
    async def connect(self, node: BackendNode) -> Connection:
        """A fresh connection to *node* (caller owns its lifecycle)."""
        return await asyncio.open_connection(
            node.host, node.port, limit=MAX_LINE_BYTES
        )

    def _count_connect(self, kind: str) -> None:
        if self.obs is not None:
            self.obs.counter(
                "cluster_backend_connects_total",
                help="Backend requests by the connection that carried them: "
                     "fresh (just opened) or reused (borrowed from the "
                     "node's idle pool).",
                kind=kind,
            ).inc()

    def _pop_idle(self, node: BackendNode) -> Optional[Connection]:
        idle = self._idle.get(node.node_id)
        while idle:
            reader, writer = idle.pop()
            if not (reader.at_eof() or writer.is_closing()):
                return reader, writer
            writer.close()  # the backend hung up while it sat idle
        return None

    @staticmethod
    async def _exchange(conn: Connection, line: bytes, timeout: float) -> bytes:
        """Write *line*, read one reply line; the connection is closed
        on any way out but a reply (cancellation included)."""
        reader, writer = conn
        try:
            writer.write(line)
            await writer.drain()
            reply = await asyncio.wait_for(reader.readline(), timeout=timeout)
            if not reply:
                raise ConnectionError("backend closed the connection")
            return reply
        except BaseException:
            writer.close()
            raise

    async def request(
        self, node: BackendNode, msg: Dict[str, Any], timeout: float
    ) -> Tuple[bytes, Connection]:
        """Send *msg* to *node* and return its first reply line plus
        the connection that carried it — the caller reads on (streams)
        or not (calls), then hands the connection to :meth:`release`
        once the wire is back in request/reply state, or closes it.

        *timeout* bounds connecting and, separately, the wait for the
        reply.  Raises :class:`BackendDown` — never for a failure on a
        reused connection alone (see the module docstring), always for
        a timeout: a restarted backend resets stale connections at
        once, only a frozen one is silent.
        """
        line = encode_line(msg)
        try:
            conn = self._pop_idle(node)
            if conn is not None:
                self._count_connect("reused")
                try:
                    return await self._exchange(conn, line, timeout), conn
                except asyncio.TimeoutError:
                    raise
                except (OSError, asyncio.IncompleteReadError):
                    self.drop_idle(node.node_id)  # as old, as stale
            conn = await asyncio.wait_for(self.connect(node), timeout=timeout)
            self._count_connect("fresh")
            return await self._exchange(conn, line, timeout), conn
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
            raise BackendDown(
                f"{node.node_id}: {type(exc).__name__}: {exc}"
            ) from exc

    def release(self, node: BackendNode, conn: Connection) -> None:
        """Hand a clean connection back for reuse (closed instead when
        the node went down or left meanwhile, or its pool is full)."""
        if self.nodes.get(node.node_id) is node and node.healthy:
            idle = self._idle.setdefault(node.node_id, [])
            if len(idle) < MAX_IDLE_PER_NODE:
                idle.append(conn)
                return
        conn[1].close()

    def drop_idle(self, node_id: Optional[str] = None) -> None:
        """Close the idle connections of one node, or of all."""
        for nid in [node_id] if node_id is not None else list(self._idle):
            for _reader, writer in self._idle.pop(nid, ()):
                writer.close()

    async def call(self, node: BackendNode, msg: Dict[str, Any],
                   timeout: float) -> Dict[str, Any]:
        """One request/reply round trip on a pooled connection."""
        reply, conn = await self.request(node, msg, timeout)
        self.release(node, conn)
        return decode_line(reply)

    # -- probing ---------------------------------------------------------------
    async def probe(self, node: BackendNode) -> bool:
        """One stats round-trip; updates the node's health in place."""
        node.n_probes += 1
        node.last_probe_at = time.monotonic()
        probe_started = time.monotonic()
        try:
            reply = await self.call(node, {"op": "stats"}, self.probe_timeout)
            if not reply.get("ok"):
                raise ConnectionError(f"stats probe rejected: {reply}")
        except Exception as exc:  # noqa: BLE001 - any failure means down
            self.mark_down(node.node_id, f"probe: {type(exc).__name__}: {exc}")
            return False
        node.last_stats = reply
        node.probe_rtt = time.monotonic() - probe_started
        self.mark_up(node.node_id)
        return True

    async def probe_all(self, due_only: bool = False) -> int:
        """Probe every node concurrently; returns the healthy count.

        With *due_only*, down nodes whose backoff window has not
        elapsed are skipped — the periodic loop's mode; explicit calls
        (router start, tests) probe everything.
        """
        now = time.monotonic()
        nodes = [
            node for node in self.nodes.values()
            if not due_only or node.healthy or now >= node.next_probe_at
        ]
        results = await asyncio.gather(*(self.probe(node) for node in nodes))
        return sum(1 for ok in results if ok)

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval)
            with contextlib.suppress(Exception):
                await self.probe_all(due_only=True)

    def start_probing(self) -> None:
        if self._probe_task is None:
            self._probe_task = asyncio.create_task(
                self._probe_loop(), name="repro-cluster-probe"
            )

    async def stop_probing(self) -> None:
        if self._probe_task is not None:
            self._probe_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._probe_task
            self._probe_task = None

    # -- introspection ---------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        return [
            {**node.snapshot(),
             "n_idle_connections": len(self._idle.get(node.node_id, ()))}
            for node in self.nodes.values()
        ]

    def cache_totals(self) -> Tuple[int, int]:
        """Cluster-wide ``(hits, misses)`` from the last probed stats.

        The *weighted* aggregate: summing raw counters before dividing
        weighs each backend by its traffic, unlike averaging the
        per-node ``cache_hit_rate`` values (which over-weights idle
        nodes).  Backends that have never answered a probe contribute
        nothing.
        """
        def count(stats: Dict[str, Any], field_name: str) -> int:
            value = stats.get(field_name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return int(value)
            return 0

        hits = misses = 0
        for node in self.nodes.values():
            if isinstance(node.last_stats, dict):
                hits += count(node.last_stats, "n_cache_hits")
                misses += count(node.last_stats, "n_cache_misses")
        return hits, misses

    def cache_summary(self) -> Dict[str, Any]:
        """The cluster-wide cache doc: total hits/misses/lookups and the
        weighted hit rate (``None`` until any backend reports lookups)."""
        hits, misses = self.cache_totals()
        lookups = hits + misses
        return {
            "n_cache_hits": hits,
            "n_cache_misses": misses,
            "n_lookups": lookups,
            "cache_hit_rate": (hits / lookups) if lookups else None,
        }
