"""The cache-affine shard router.

A :class:`ShardRouter` fronts N ``repro.service`` backends behind one
address, speaking the *same* JSON-lines protocol the backends speak —
an unmodified :class:`~repro.service.client.ServiceClient` cannot tell
a router from a single service.  What it adds:

* **cache-affine placement**: each submission's routing key is its
  content-addressed :func:`~repro.engine.schema.request_key`, and
  rendezvous hashing (:mod:`repro.cluster.hashing`) maps the key to a
  backend — so a repeat request lands on the node whose
  :class:`~repro.engine.cache.ResultCache` already holds it, and the
  cluster-wide cache hit rate survives node churn with minimal key
  movement;
* **failover**: the :class:`~repro.cluster.pool.BackendPool` marks
  nodes down (probe- or demand-driven) and routing rehashes with the
  dead node excluded; a backend dying *mid-stream* re-dispatches the
  job to the next node in the key's rendezvous order and keeps the
  client's stream open — the client sees a longer job, not an error;
* **durability**: every routed job is recorded in a
  :class:`~repro.service.store.JobLog` (submit → assign → complete), so
  a restarted router re-registers pending jobs under their original ids
  and re-dispatches them on demand.  Completion is at-most-once in
  effect: a job that finished just before an unlogged crash replays into
  its owner's content-addressed cache and costs a lookup, not a rerun;
* **per-client quotas**: optional token buckets
  (:mod:`repro.cluster.quota`) reject over-limit submitters with the
  queue's retry-after backpressure shape;
* **warm standbys** (``replication_factor=2``): each placement is
  mirrored to the key's rendezvous runner-up, so a primary that dies
  mid-stream is *promoted away from* — the standby already holds the
  job (often mid-run or finished) and the stream re-attaches to it
  instead of re-dispatching from scratch.  Duplicate completions
  collapse in the backends' content-addressed caches;
* **a durable result index**: terminal job ids (state + result digest)
  persist in a :class:`~repro.service.store.ResultIndex` beside
  the WAL, so ``op:status`` keeps answering for *finished* jobs across
  router restarts — the WAL alone only resurrects pending ones;
* **results, not requests, in retention**: a terminal job drops its
  submit spec (the WAL already holds it, and a finished job is never
  re-dispatched or mirrored), so the registry's ``job_retention``
  bound is a bound on bytes too — not on 4,096 inline images.  A job
  its owner answered *born done* from cache keeps the one terminal
  event the submit reply carried, and a stream of it is answered here,
  with no second backend round trip.  The reply goes on to the client
  with that event and the job's ``trace``, so a client that just
  submitted it need not stream at all;
* **a result memo for repeats**: the first cache hit of a key teaches
  the router that key's result — the owner's born-done ``terminal``
  event.  A bounded LRU (:data:`RESULT_MEMO_CAPACITY` keys) keeps that
  event, its digest and the answering node, and every later submit of
  the key is answered here, exactly as the owner's hit was, with no
  backend call, no WAL record and no digest.  Results are bit-identical
  per content-addressed key, so a memoised event is the one the owner
  would send again.  Only such cache hits fill it: cold completions,
  failures, status-only completions, index-restored jobs and
  uncacheable specs never do.  A memo hit still spends quota, is still
  shed past its deadline, and is still recorded in the result index;
  it answers with every backend down, and its status, cancel and
  stream are answered from the router's record.  The memo lives in
  memory only and starts empty after a restart.

Job ids: the router mints its own (``cjob-…``) and maps them to the
backend-local ids, which is what makes restart/failover transparent —
the client's id stays valid while the backend-side job moves nodes or
is re-created.

Consciously *not* done: spilling an over-quota or queue-full submission
to a non-owner backend.  That would trade cache affinity for admission,
and the backpressure contract already gives clients the right behaviour
(retry later, same node).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Set, Tuple, Union

from repro.cluster.hashing import rendezvous_choose, rendezvous_ranking
from repro.cluster.pool import BackendDown, BackendNode, BackendPool
from repro.cluster.quota import QuotaPolicy
from repro.engine.schema import request_key
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    ServiceError,
)
from repro.obs import (
    get_collector,
    get_registry,
    label_spans,
    mark_trace,
    merge_families,
    recent_spans,
    record_span,
    remote_parent,
    render_json,
    trace,
)
from repro.service.jobserver import (
    JobServer,
    LoopHandle,
    run_background_loop,
    run_forever,
    store_stats,
)
from repro.service.policy import RetryPolicy
from repro.service.protocol import (
    TERMINAL_EVENTS,
    decode_line,
    request_from_wire,
    submit_fields,
)
from repro.service.store import JobLog, ResultIndex

__all__ = [
    "RouterJob",
    "ShardRouter",
    "RouterHandle",
    "router_background",
    "routing_key",
    "serve_cluster_forever",
]

#: Terminal router jobs retained for status/stream routing.  A retained
#: job holds ids, placement and, when its owner answered it from cache,
#: that one terminal event (a few KB) — never its spec's pixels.
DEFAULT_JOB_RETENTION = 4096

#: Request keys whose born-done result the router answers repeats from
#: (one shared terminal event each, a few KB) — sized like the spec
#: fingerprint memo's :data:`~repro.service.protocol.SPEC_MEMO_CAPACITY`.
RESULT_MEMO_CAPACITY = 512

#: Wire event name → job-log completion state.
_EVENT_STATE = {"result": "done", "error": "failed", "cancelled": "cancelled"}


def routing_key(spec: Dict[str, Any]) -> str:
    """The routing key of a job spec: its content-addressed
    :func:`request_key` (which also validates the spec), or — for
    uncacheable specs (entropy seeds) — a digest of the spec document
    itself, so routing stays deterministic even when caching cannot.

    O(pixels) for inline images; the router runs it on a parse thread,
    once per distinct payload (:meth:`ShardRouter._routing_key`).
    """
    request = request_from_wire(spec)  # raises ServiceError on a bad spec
    key = request_key(request)
    if key is not None:
        return key
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _router_job_id() -> str:
    return f"cjob-{uuid.uuid4().hex[:12]}"


@dataclass
class RouterJob:
    """One routed job: the client-facing id plus its current placement."""

    rid: str
    spec: Dict[str, Any]  #: the submit spec while live; ``{}`` once terminal
    key: str
    client: Optional[str] = None
    priority: int = 0
    state: str = "pending"  #: pending | routed | done | failed | cancelled
    node_id: Optional[str] = None
    backend_job_id: Optional[str] = None
    n_dispatches: int = 0
    replayed: bool = False
    #: Restored from the result index after a restart: terminal by
    #: construction, spec-less — answers status, never streams/replays.
    restored: bool = False
    #: Warm-standby copy (replication_factor >= 2): the runner-up node
    #: holding a mirror of this job, promoted to primary if the primary
    #: dies before completion.
    standby_node_id: Optional[str] = None
    standby_job_id: Optional[str] = None
    #: Absolute monotonic deadline (propagated wire deadline); the
    #: remaining budget is forwarded on every (re-)dispatch.
    deadline_at: Optional[float] = None
    #: Remote parent span id — forwarded so backend engine spans parent
    #: under this router's submit span in a cluster-wide scrape.
    trace_id: Optional[str] = None
    #: sha256 of the terminal wire event, once seen (also what the
    #: result index persists); ``None`` for a job whose completion was
    #: only seen in a status document.
    result_digest: Optional[str] = None
    #: A born-done job's one terminal event, off its submit reply:
    #: streams of the job are answered from it, without a backend.
    #: For a memo hit it *is* the memo's event object — never mutated.
    terminal_event: Optional[Dict[str, Any]] = None
    #: Answered from the router's result memo: no backend ever held
    #: this job, so its status/cancel/stream never ask one.
    memo_hit: bool = False
    submitted_at: float = field(default_factory=time.monotonic)
    lock: "asyncio.Lock" = field(default_factory=asyncio.Lock, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")


class ShardRouter(JobServer):
    """Asyncio TCP front: one address, N detection-service backends.

    Parameters
    ----------
    backends:
        Backend addresses (``"host:port"`` strings or tuples).
    host, port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    job_log:
        Optional :class:`JobLog` (or path) making routed jobs durable:
        pending jobs are re-registered on start and re-dispatched on
        demand.
    quota:
        Optional :class:`QuotaPolicy` applied per client id (the
        ``client`` field of submit messages, else the peer host).
    probe_interval, probe_timeout:
        Backend health-probe cadence (see :class:`BackendPool`).
    backend_timeout:
        Per-request timeout for forwarded request/reply ops.
    replication_factor:
        ``1`` (default): single placement, failover re-dispatches.
        ``>= 2``: every placement is mirrored to the key's rendezvous
        runner-up and a dead primary *promotes* the warm standby
        instead of re-dispatching cold.
    result_index:
        Optional :class:`ResultIndex` (or path) remembering terminal
        job ids across restarts, so completed jobs keep answering
        ``op:status`` instead of 404ing after a restart.
    retry_policy:
        The :class:`~repro.service.policy.RetryPolicy` pacing restart
        re-dispatch of replayed jobs (default: 4 attempts, decorrelated
        jitter from 0.25 s).
    stream_timeout:
        Optional inter-event timeout for proxied streams; a backend
        that stalls mid-stream longer than this (e.g. SIGSTOPped) is
        marked down and failed over.  ``None`` (default) waits forever,
        matching the service's own streaming contract.
    """

    role = "router"
    metric_prefix = "cluster"
    not_started_error = ClusterError

    def __init__(
        self,
        backends: Sequence[Union[str, Tuple[str, int]]],
        host: str = "127.0.0.1",
        port: int = 0,
        job_log: Union[JobLog, str, None] = None,
        quota: Optional[QuotaPolicy] = None,
        probe_interval: float = 2.0,
        probe_timeout: float = 5.0,
        backend_timeout: float = 60.0,
        job_retention: int = DEFAULT_JOB_RETENTION,
        node_id: Optional[str] = None,
        replication_factor: int = 1,
        result_index: Union[ResultIndex, str, None] = None,
        retry_policy: Optional[RetryPolicy] = None,
        stream_timeout: Optional[float] = None,
    ) -> None:
        super().__init__(host, port,
                         node_id or f"router-{uuid.uuid4().hex[:8]}",
                         job_retention, job_log=job_log, quota=quota)
        # The instance registry also carries routing/failover counters,
        # backend health transitions (via the pool), live health gauges.
        self.pool = BackendPool(
            backends, probe_interval=probe_interval, probe_timeout=probe_timeout,
            obs=self.obs,
        )
        if isinstance(result_index, (str, os.PathLike)):
            result_index = ResultIndex(result_index)
        self.result_index = result_index
        self.backend_timeout = backend_timeout
        self.stream_timeout = stream_timeout
        if not isinstance(replication_factor, int) or replication_factor < 1:
            raise ClusterError(
                f"replication_factor must be an integer >= 1, "
                f"got {replication_factor!r}"
            )
        self.replication_factor = replication_factor
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=4, base_delay=0.25, max_delay=2.0
        )
        self._replay_task: Optional[asyncio.Task] = None
        self._side_tasks: set = set()  #: mirror/standby-cancel fire-and-forgets
        #: request key → (terminal event, its digest, answering node)
        #: of a born-done cache hit; LRU, :data:`RESULT_MEMO_CAPACITY`.
        self._result_memo: "OrderedDict[str, Tuple[Dict[str, Any], str, str]]" = (
            OrderedDict())
        self.n_submitted = 0
        self.n_routed = 0
        self.n_failovers = 0
        self.n_affinity_hits = 0
        self.n_replayed = 0
        self.n_restored = 0
        self.n_mirrored = 0
        self.n_standby_promotions = 0
        self.n_memo_hits = 0
        self.obs.gauge(
            "cluster_backends_healthy",
            help="Backends currently eligible for new placement.",
            fn=lambda: len(self.pool.healthy_ids()),
        )
        self.obs.gauge(
            "cluster_backends_configured",
            help="Backends in the pool, healthy or not.",
            fn=lambda: len(self.pool.nodes),
        )

    def _count(self, name: str, help_text: str, **labels) -> None:
        self.obs.counter(name, help=help_text, **labels).inc()

    def _note_failover(self) -> None:
        self.n_failovers += 1
        self._count(
            "cluster_failovers_total",
            "Dead-backend encounters triggering re-dispatch/rerouting.",
        )

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.started_at = time.monotonic()
        # Know who is alive before the first submission or replay.
        await self.pool.probe_all()
        self.pool.start_probing()
        if self.job_log is not None:
            self._register_replayed()
        if self.result_index is not None:
            self._register_indexed()
        await self._listen()
        if self.n_replayed:
            self._replay_task = asyncio.create_task(
                self._dispatch_replayed(), name="repro-router-replay"
            )

    async def stop(self) -> None:
        if self._replay_task is not None:
            self._replay_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._replay_task
            self._replay_task = None
        for task in list(self._side_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self._side_tasks.clear()
        await self.pool.stop_probing()
        await self._close()
        self.pool.drop_idle()
        if self.job_log is not None:
            self.job_log.close()
        if self.result_index is not None:
            self.result_index.close()

    # -- restart replay --------------------------------------------------------
    def _register_replayed(self) -> None:
        """Re-register the log's pending jobs under their original ids.

        The old assignment is deliberately dropped: the backend may have
        restarted (losing the job) or died; re-dispatch re-derives the
        owner from the key, which lands on the same node whenever that
        node is alive.
        """
        replay = self.job_log.replay()
        for pending in replay.pending.values():
            if pending.job_id in self._jobs:
                continue
            key = pending.key or routing_key(pending.spec)
            job = RouterJob(
                rid=pending.job_id,
                spec=pending.spec,
                key=key,
                client=pending.client,
                priority=pending.priority,
                replayed=True,
            )
            self._register(job.rid, job)
            self.n_replayed += 1

    def _register_indexed(self) -> None:
        """Re-register the result index's terminal jobs.

        Runs *after* WAL replay, which wins on conflict (an id that is
        both pending in the WAL and terminal in the index means the
        complete record raced the crash — replaying is the safe side).
        Restored jobs carry no spec and no event history: they answer
        ``op:status`` and refuse resurrection, which is exactly the
        restart contract clients polling a finished id need.
        """
        for entry in self.result_index.load().values():
            if entry.job_id in self._jobs:
                continue
            self._register(entry.job_id, RouterJob(
                rid=entry.job_id,
                spec={},
                key=entry.key or "",
                state=entry.state,
                restored=True,
                result_digest=entry.digest,
            ))
            self.n_restored += 1

    async def _dispatch_replayed(self) -> None:
        """Re-dispatch replayed jobs, pacing rounds by the retry policy.

        A job whose dispatch fails (no healthy backends yet, backend
        queue full) stays pending and is retried next round; when the
        policy's attempts run out the survivors are left pending — the
        next status/stream for the id (or the next restart) retries.
        """
        retry = self.retry_policy.start(op="router.redispatch")
        while True:
            remaining = [
                job for job in self._jobs.values()
                if job.replayed and not job.terminal and job.node_id is None
            ]
            if not remaining:
                return
            for job in remaining:
                try:
                    await self._ensure_assignment(job, set())
                except (ServiceError, ClusterError):
                    continue
            if not any(
                job.replayed and not job.terminal and job.node_id is None
                for job in self._jobs.values()
            ):
                return
            try:
                await retry.asleep()
            except ServiceError:
                return  # attempts exhausted: leave the rest pending

    # -- job registry ----------------------------------------------------------
    def _complete(self, job: RouterJob, state: str,
                  event: Optional[Dict[str, Any]] = None) -> None:
        """Finish *job* in *state*; *event*, when the router saw the
        job's terminal wire event, is digested into the result index.
        A job already finished (an ``op: status`` reply got there
        first) only gains the digest it lacks."""
        if job.terminal:
            if event is not None and job.result_digest is None:
                job.result_digest = self._digest_event(event)
                self._record_result(job)
            return
        job.state = state
        if event is not None:
            job.result_digest = self._digest_event(event)
        # A finished job answers from its result: the spec (which pins
        # inline pixels) is in the WAL, and nothing re-dispatches or
        # mirrors a terminal job.
        job.spec = {}
        if state == "failed":
            # Tail sampling: keep the trace buffers of failed jobs on
            # the router side too, so post-mortem trace assembly still
            # finds the router's submit/stream spans.
            mark_trace(job.trace_id, error=True)
        if self.job_log is not None:
            self.job_log.log_complete(job.rid, state)
        self._record_result(job)
        # A finished job no longer needs its warm standby: cancel the
        # mirror copy (fire-and-forget — the standby may be dead, and a
        # cancel that misses only costs the standby a redundant run
        # that its cache collapses anyway).
        standby_node, standby_bid = job.standby_node_id, job.standby_job_id
        job.standby_node_id = job.standby_job_id = None
        if standby_node is not None and standby_bid is not None:
            self._spawn_side_task(
                self._cancel_backend_job(standby_node, standby_bid)
            )

    def _record_result(self, job: RouterJob) -> None:
        if self.result_index is not None:
            self.result_index.record(
                job.rid, job.state, key=job.key or None,
                digest=job.result_digest,
            )

    @staticmethod
    def _digest_event(event: Dict[str, Any]) -> str:
        """sha256 of a terminal wire event's canonical JSON — the
        cross-restart result fingerprint the index persists."""
        canonical = json.dumps(
            event, sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _spawn_side_task(self, coro) -> None:
        """Run *coro* as a tracked fire-and-forget task (mirrors,
        standby cancels); dropped silently when no loop is running
        (router already stopping)."""
        if self._loop is None or not self._loop.is_running():
            coro.close()
            return
        task = self._loop.create_task(coro)
        self._side_tasks.add(task)
        task.add_done_callback(self._side_tasks.discard)

    async def _cancel_backend_job(self, node_id: str, backend_job_id: str) -> None:
        node = self.pool.nodes.get(node_id)
        if node is None:
            return
        with contextlib.suppress(BackendDown, ServiceError):
            await self._call(node, {"op": "cancel", "job_id": backend_job_id})

    # -- placement -------------------------------------------------------------
    def _call(self, node: BackendNode, msg: Dict[str, Any]):
        """One request/reply with *node* over its pooled connections."""
        return self.pool.call(node, msg, self.backend_timeout)

    async def _routing_key(self, spec: Dict[str, Any]) -> str:
        """:func:`routing_key` of *spec*, parsed once per distinct
        payload: a byte-identical repeat is answered from the
        fingerprint memo on the loop — no thread hop, no pixel decode.
        A spec that fails to parse raises and is never remembered."""
        fingerprint, key = self._spec_memo.lookup(spec)
        if key is None:
            key = await self._parse(routing_key, spec)
            self._spec_memo.remember(fingerprint, key)
        return key

    def choose_node(self, key: str, exclude: Optional[Set[str]] = None) -> str:
        node_id = rendezvous_choose(key, self.pool.healthy_ids(), exclude=exclude)
        if node_id is None:
            raise ClusterError(
                "no healthy backends available "
                f"({len(self.pool.nodes)} configured, "
                f"{len(self.pool.healthy_ids())} healthy, "
                f"{len(exclude or ())} excluded)"
            )
        return node_id

    async def _dispatch(
        self, job: RouterJob, exclude: Optional[Set[str]] = None
    ) -> Dict[str, Any]:
        """Submit *job* to its rendezvous owner, walking the failover
        order past dead nodes.  Returns the backend's reply verbatim —
        ``ok: false`` replies (queue-full, quota) propagate untouched."""
        if job.deadline_at is not None and time.monotonic() >= job.deadline_at:
            # The client's budget is spent: shed instead of dispatching
            # doomed work.  Completed so the WAL never replays it.
            self._complete(job, "failed")
            raise DeadlineExceededError(
                f"job {job.rid} shed — deadline expired before dispatch"
            )
        exclude = set(exclude or ())
        while True:
            node_id = self.choose_node(job.key, exclude)
            node = self.pool.node(node_id)
            try:
                reply = await self._call(node, self._submit_msg(job))
            except BackendDown as exc:
                self.pool.mark_down(node_id, str(exc))
                exclude.add(node_id)
                self._note_failover()
                continue
            if reply.get("ok"):
                job.node_id = node_id
                job.backend_job_id = reply.get("job_id")
                job.state = "routed"
                job.n_dispatches += 1
                node.n_assigned += 1
                self.n_routed += 1
                self._count(
                    "cluster_routed_total",
                    "Jobs successfully placed on a backend.",
                    node=node_id,
                )
                if reply.get("cached"):
                    self.n_affinity_hits += 1
                    self._count(
                        "cluster_affinity_hits_total",
                        "Placements answered from the owner's result cache.",
                    )
                if self.job_log is not None:
                    self.job_log.log_assign(
                        job.rid, node=node_id, backend_job_id=job.backend_job_id
                    )
                if reply.get("state") in ("done", "failed", "cancelled"):
                    # A born-done job's history rides its submit reply,
                    # which goes on to the client with it.
                    job.terminal_event = reply.get("terminal")
                    self._complete(job, reply["state"], job.terminal_event)
                    if reply.get("cached"):
                        self._memoise(job)
                elif self.replication_factor > 1:
                    self._spawn_side_task(self._mirror(job))
            return reply

    def _memoise(self, job: RouterJob) -> None:
        """Remember a born-done cache hit's result under its key.  A
        cached reply proves the key content-addressed; only a ``done``
        job whose event is a ``result`` qualifies."""
        event = job.terminal_event
        if (job.state != "done" or not isinstance(event, dict)
                or event.get("event") != "result"):
            return
        self._result_memo[job.key] = (event, job.result_digest, job.node_id)
        self._result_memo.move_to_end(job.key)
        while len(self._result_memo) > RESULT_MEMO_CAPACITY:
            self._result_memo.popitem(last=False)

    def _memo_answer(self, job: RouterJob) -> Optional[Dict[str, Any]]:
        """The submit reply for *job* from the result memo — the same
        document a backend-answered hit gets — or ``None`` on a miss.
        A hit registers *job* terminal and records it in the result
        index; it makes no backend call and writes no WAL record."""
        entry = self._result_memo.get(job.key)
        if entry is None:
            return None
        self._result_memo.move_to_end(job.key)
        job.terminal_event, job.result_digest, job.node_id = entry
        job.spec = {}
        job.state = "done"
        job.memo_hit = True
        self.n_memo_hits += 1
        self._count(
            "cluster_memo_hits_total",
            "Submissions answered from the router's result memo, "
            "with no backend call.",
        )
        self._register(job.rid, job)
        self._record_result(job)
        return {"ok": True, "job_id": job.rid, "cached": True,
                "state": job.state, "terminal": job.terminal_event,
                "trace": job.trace_id, "node": job.node_id}

    def _submit_msg(self, job: RouterJob) -> Dict[str, Any]:
        """The backend submit message for *job*, with the remaining
        deadline budget and the trace parent on the wire."""
        msg: Dict[str, Any] = {
            "op": "submit",
            "job": job.spec,
            "priority": job.priority,
            "client": job.client,
        }
        if job.deadline_at is not None:
            msg["deadline"] = max(0.0, job.deadline_at - time.monotonic())
        if job.trace_id:
            msg["trace"] = job.trace_id
        return msg

    async def _mirror(self, job: RouterJob) -> None:
        """Place a warm-standby copy of *job* on the key's rendezvous
        runner-up (replication_factor >= 2).

        Best-effort by design: a standby that cannot be placed (one
        healthy node, full queue, racing death) degrades to plain
        failover re-dispatch — never to an error the client sees.  The
        copy is a real submission, so by promotion time the standby has
        either finished the job (content-addressed cache collapses the
        duplicate) or is mid-run and warm.
        """
        primary = job.node_id
        if primary is None or job.terminal:
            return
        if (
            job.standby_node_id is not None
            and job.standby_node_id != primary
            and self.pool.is_healthy(job.standby_node_id)
        ):
            return  # current standby is still good
        ranking = rendezvous_ranking(job.key, self.pool.healthy_ids())
        candidates = [nid for nid in ranking if nid != primary]
        if not candidates:
            return  # no second healthy node to mirror onto
        node_id = candidates[0]
        node = self.pool.node(node_id)
        try:
            reply = await self._call(node, self._submit_msg(job))
        except BackendDown as exc:
            self.pool.mark_down(node_id, str(exc))
            return
        if not reply.get("ok"):
            return  # backpressure on the standby: mirror later, not louder
        if job.terminal:
            # Finished while the mirror was in flight: the copy is
            # already useless — reap it.
            backend_bid = reply.get("job_id")
            if backend_bid:
                await self._cancel_backend_job(node_id, backend_bid)
            return
        job.standby_node_id = node_id
        job.standby_job_id = reply.get("job_id")
        self.n_mirrored += 1
        self._count(
            "cluster_mirrored_total",
            "Warm-standby copies placed on rendezvous runner-ups.",
            node=node_id,
        )

    def _clear_assignment(self, job: RouterJob) -> None:
        job.node_id = None
        job.backend_job_id = None
        if not job.terminal:
            job.state = "pending"

    async def _ensure_assignment(
        self, job: RouterJob, exclude: Set[str]
    ) -> Tuple[str, str]:
        """The job's live (node, backend job id), re-dispatching if its
        assignment is missing, excluded, or on an unhealthy node."""
        async with job.lock:
            if (
                job.node_id is not None
                and job.node_id not in exclude
                and self.pool.is_healthy(job.node_id)
            ):
                return job.node_id, job.backend_job_id
            if job.terminal:
                # Never resurrect a finished/cancelled job just because
                # the node holding its history died — its completion is
                # already on record (and possibly streamed to a client).
                raise ClusterError(
                    f"job {job.rid} is {job.state} and its backend is "
                    "gone; its event history cannot be replayed"
                )
            self._clear_assignment(job)
            # Warm-standby promotion: if a mirror copy is alive on a
            # healthy node, adopt it as the new primary — no fresh
            # dispatch, no cold start; the standby is already running
            # (or done with) this job.
            standby_node = job.standby_node_id
            if (
                standby_node is not None
                and job.standby_job_id is not None
                and standby_node not in exclude
                and self.pool.is_healthy(standby_node)
            ):
                job.node_id = standby_node
                job.backend_job_id = job.standby_job_id
                job.state = "routed"
                job.standby_node_id = job.standby_job_id = None
                self.n_standby_promotions += 1
                self._count(
                    "standby_promotions_total",
                    "Warm standbys promoted to primary after a dead node.",
                    node=standby_node,
                )
                if self.job_log is not None:
                    self.job_log.log_assign(
                        job.rid, node=standby_node,
                        backend_job_id=job.backend_job_id,
                    )
                if self.replication_factor > 1:
                    self._spawn_side_task(self._mirror(job))  # re-arm
                return job.node_id, job.backend_job_id
            reply = await self._dispatch(job, exclude=exclude)
            if not reply.get("ok"):
                raise ClusterError(
                    f"re-dispatch of {job.rid} rejected: "
                    f"{reply.get('message', reply.get('error', 'unknown error'))}"
                )
            return job.node_id, job.backend_job_id

    # -- ops -------------------------------------------------------------------
    async def op_submit(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        priority, deadline_at, wire_trace = submit_fields(msg)
        client = msg.get("client")
        self._check_quota(client)
        spec = msg.get("job")
        if not isinstance(spec, dict):
            raise ServiceError("submit needs a 'job' object")
        # The routing span parents under the submitter's wire span (if
        # any) and its own id rides to the backend, so a cluster-wide
        # scrape shows client → router → backend as one span tree.
        with remote_parent(wire_trace):
            with trace("cluster.submit", registry=self.obs,
                       node=self.node_id) as span:
                key = await self._routing_key(spec)
                job = RouterJob(
                    rid=_router_job_id(), spec=spec, key=key,
                    client=client, priority=priority,
                    deadline_at=deadline_at, trace_id=span.span_id,
                )
                self.n_submitted += 1
                self._count(
                    "cluster_submissions_total",
                    "Client submissions this router accepted.",
                )
                if deadline_at is None or time.monotonic() < deadline_at:
                    # A spent deadline skips the memo: dispatch sheds it.
                    answered = self._memo_answer(job)
                    if answered is not None:
                        span.labels["answered"] = "router"
                        return answered
                self._register(job.rid, job)
                if self.job_log is not None:
                    self.job_log.log_submit(
                        job.rid, spec, key=key, client=client,
                        priority=priority,
                    )
                try:
                    reply = await self._dispatch(job)
                except ClusterError:
                    # No healthy backends: the client sees the
                    # rejection, so the logged submit must not replay
                    # after a restart.
                    self._complete(job, "cancelled")
                    raise
                if not reply.get("ok"):
                    # The client saw the rejection; must not replay.
                    self._complete(job, "cancelled")
                    return reply
                forwarded = {**reply, "job_id": job.rid, "node": job.node_id}
                if "terminal" in reply:
                    # The trace key this job's stream ack would carry.
                    forwarded["trace"] = job.trace_id
                return forwarded

    def _pending_doc(self, job: RouterJob) -> Dict[str, Any]:
        return {"ok": True, "job_id": job.rid, "state": "queued",
                "node": None, "pending_dispatch": True,
                "priority": job.priority}

    def _terminal_doc(self, job: RouterJob) -> Dict[str, Any]:
        """Status answered from the router's own record — the backend
        holding the job's history is gone (or was never this router's,
        for index-restored jobs; or never existed, for memo hits)."""
        doc: Dict[str, Any] = {"ok": True, "job_id": job.rid,
                               "state": job.state, "node": None}
        if job.restored:
            doc["restored"] = True
        if job.memo_hit:
            doc["cached"] = True
        if job.result_digest:
            doc["digest"] = job.result_digest
        return doc

    async def op_status(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Forward a status poll, re-dispatching a lost job on the way —
        a client that only polls (never streams) still gets its job
        recovered from a dead or amnesiac backend.

        The (node, backend id) pair is snapshotted before awaiting: a
        concurrent stream failover may re-assign the job mid-call, and
        acting on the *new* assignment with the *old* call's failure
        would mark a healthy node down.
        """
        job = self._job(msg.get("job_id"))
        if job.memo_hit:
            return self._terminal_doc(job)
        for attempt in range(2):
            if job.node_id is None:
                if job.terminal:
                    return self._terminal_doc(job)
                try:
                    await self._ensure_assignment(job, set())
                except (ClusterError, ServiceError):
                    return self._pending_doc(job)
            node_id, bid = job.node_id, job.backend_job_id
            try:
                reply = await self._call(
                    self.pool.node(node_id), {"op": "status", "job_id": bid}
                )
            except BackendDown as exc:
                self.pool.mark_down(node_id, str(exc))
                self._note_failover()
                if job.terminal:
                    return self._terminal_doc(job)
                if job.node_id == node_id:
                    self._clear_assignment(job)
                continue  # one re-dispatch try, then report pending
            if job.node_id != node_id and not job.terminal:
                continue  # re-assigned while we awaited: ask its new home
            if not reply.get("ok"):
                if reply.get("error") == "unknown-job":
                    if job.terminal:
                        # Backend restarted and forgot a finished job;
                        # the router's own record still answers.
                        return self._terminal_doc(job)
                    # Forgot a live job: back to pending, re-dispatch.
                    if job.node_id == node_id:
                        self._clear_assignment(job)
                    continue
                return reply
            if reply.get("state") in ("done", "failed", "cancelled"):
                # A status document is not the result: no digest.
                self._complete(job, reply["state"])
            return {**reply, "job_id": job.rid, "node": node_id}
        return self._pending_doc(job)

    async def op_cancel(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job(msg.get("job_id"))
        for attempt in range(2):
            # Serialise with any in-flight dispatch (_ensure_assignment
            # holds this lock across the backend submit): cancelling
            # lock-free while a dispatch is mid-air would let the
            # returning dispatch resurrect the terminal state.  The
            # assignment is snapshotted under the lock — a concurrent
            # failover may move the job while we await the backend.
            async with job.lock:
                if job.terminal:
                    return {"ok": True, "job_id": job.rid, "state": job.state,
                            "cancelled": job.state == "cancelled"}
                if job.node_id is None:
                    self._complete(job, "cancelled")
                    return {"ok": True, "job_id": job.rid, "state": job.state,
                            "cancelled": True}
                node_id, bid = job.node_id, job.backend_job_id
            try:
                reply = await self._call(
                    self.pool.node(node_id), {"op": "cancel", "job_id": bid}
                )
            except BackendDown as exc:
                self.pool.mark_down(node_id, str(exc))
                self._note_failover()
                async with job.lock:
                    if job.node_id == node_id and not job.terminal:
                        # Assignment unchanged: the job dies with its
                        # node — never replayed.
                        self._complete(job, "cancelled")
                        return {"ok": True, "job_id": job.rid,
                                "state": job.state, "cancelled": True}
                continue  # the job moved meanwhile: cancel its new home
            if job.node_id != node_id and not job.terminal:
                continue  # re-assigned while we awaited
            if reply.get("ok") and reply.get("cancelled"):
                self._complete(job, "cancelled")
            elif reply.get("ok") and reply.get("state") in ("done", "failed"):
                self._complete(job, reply["state"])
            if reply.get("ok"):
                return {**reply, "job_id": job.rid, "node": node_id}
            return reply
        # Two moves in a row: report the current state without claiming
        # the cancel landed; the client may retry.
        return {"ok": True, "job_id": job.rid, "state": job.state,
                "cancelled": job.state == "cancelled"}

    async def op_route(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """``op: route`` — where *would* this job go (no submission).

        The introspection hook the affinity tests and ``repro cluster
        status`` use; never spends quota, never touches a backend.
        """
        spec = msg.get("job")
        if not isinstance(spec, dict):
            raise ServiceError("route needs a 'job' object")
        key = await self._routing_key(spec)
        return {"ok": True, "key": key, "node": self.choose_node(key)}

    def stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        doc: Dict[str, Any] = {
            "role": "router",
            "node_id": self.node_id,
            "uptime_seconds": time.monotonic() - self.started_at,
            "n_submitted": self.n_submitted,
            "n_routed": self.n_routed,
            "n_failovers": self.n_failovers,
            "n_affinity_hits": self.n_affinity_hits,
            "n_replayed": self.n_replayed,
            "n_restored": self.n_restored,
            "n_mirrored": self.n_mirrored,
            "n_standby_promotions": self.n_standby_promotions,
            "n_memo_hits": self.n_memo_hits,
            "replication_factor": self.replication_factor,
            "n_connections_accepted": int(self._accepted.value),
            "n_connections_open": len(self._connections),
            "jobs": states,
            "backends": self.pool.snapshot(),
            "n_backends_healthy": len(self.pool.healthy_ids()),
            # Cluster-wide weighted cache aggregate (total hits / total
            # lookups across backends) — the per-node rates above can't
            # be eyeballed into a cluster number at N nodes.
            "cluster_cache": self.pool.cache_summary(),
        }
        self._admission_stats(doc)
        if self.result_index is not None:
            doc["result_index"] = store_stats(self.result_index)
        return doc

    async def op_metrics(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """The ``op:metrics`` reply: the router's registry merged with
        the process-wide engine registry, plus one ``op:metrics`` round
        per healthy backend whose families merge in tagged
        ``node=<backend id>`` — so one scrape of the router (over TCP,
        or through the gateway's ``GET /metrics``) covers the service
        layer too.  With ``spans`` the round also gathers each node's
        recent spans, ``node``-labeled: ``repro metrics --spans``
        against the router sees the whole cluster.  A backend that
        fails the fetch contributes nothing; health marking is left to
        the probe loop (a scrape is not a health verdict)."""
        include_spans = bool(msg.get("spans"))

        async def fetch(node: BackendNode):
            try:
                reply = await self._call(
                    node, {"op": "metrics", "spans": include_spans})
            except BackendDown:
                return None
            return (node.node_id, reply) if reply.get("ok") else None

        healthy = [n for n in self.pool.nodes.values() if n.healthy]
        replies = [item for item in await asyncio.gather(
            *(fetch(node) for node in healthy)) if item is not None]
        doc: Dict[str, Any] = {
            "ok": True,
            "role": "router",
            "node_id": self.node_id,
            "metrics": render_json(self.obs, get_registry()),
        }
        for node_id, reply in replies:
            merge_families(doc["metrics"], reply.get("metrics"),
                           extra_labels={"node": node_id})
        if include_spans:
            # Backend copies first, deduped by span id: in a thread-mode
            # cluster every component shares one span ring, and the
            # backends' node labels are the accurate ones.
            sources = [(reply.get("spans"), node_id) for node_id, reply in replies]
            sources.append((recent_spans(64), self.node_id))
            seen: Set[str] = set()
            doc["spans"] = []
            for spans, node_id in sources:
                for span in label_spans(spans, node_id):
                    if str(span.get("span_id")) not in seen:
                        seen.add(str(span.get("span_id")))
                        doc["spans"].append(span)
        return doc

    # -- trace assembly --------------------------------------------------------
    async def op_trace(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Assemble one cluster-wide trace: the ``op:trace`` reply.

        Resolves a router ``job_id`` to its trace key (the
        ``cluster.submit`` span id that rode to the backends as
        ``msg["trace"]``), or takes a raw ``trace`` key, gathers
        this process's buffered spans for the trace, fans ``op:trace``
        out to the backends that touched the job (primary + warm
        standby; every healthy node for a raw trace key), and merges
        the replies: backend spans are ``node``-labeled and their
        ``started`` stamps re-based onto the router's clock when the
        measured offset exceeds what the probe RTT can explain.

        The reply is a flat span list — every span reachable from the
        root via ``parent_id`` links — plus per-node skew evidence;
        consumers build the tree with :func:`repro.obs.build_tree`.
        """
        rid, trace_key = msg.get("job_id"), msg.get("trace")
        job: Optional[RouterJob] = None
        if rid is not None:
            job = self._job(rid)
            trace_key = job.trace_id
        if not isinstance(trace_key, str) or not trace_key:
            raise ServiceError("trace needs a 'job_id' or 'trace' id")

        # A memo hit was answered here: no backend holds a span of it.
        fan_out = job is None or not job.memo_hit
        candidates: list = []
        if job is not None and fan_out:
            for nid in (job.node_id, job.standby_node_id):
                node = self.pool.nodes.get(nid) if nid else None
                if node is not None and node not in candidates:
                    candidates.append(node)
        if not candidates and fan_out:
            candidates = [n for n in self.pool.nodes.values() if n.healthy]

        async def fetch(node: BackendNode):
            t0 = time.time()
            try:
                reply = await self._call(
                    node, {"op": "trace", "trace": trace_key})
            except BackendDown:
                return None
            if not reply.get("ok"):
                return None
            return node, reply, t0, time.time()

        results = await asyncio.gather(*(fetch(node) for node in candidates))

        # Merged, deduped by span id.  A copy that already carries a
        # ``node`` label (stamped at the record site, or by the backend
        # fan-out below) beats an unlabeled one — in thread-mode test
        # clusters every component shares one collector, so the same
        # span can arrive via both the local lookup and the fan-out.
        merged: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

        def fold(span: Dict[str, Any]) -> None:
            sid = str(span.get("span_id") or "")
            if not sid:
                return
            have = merged.get(sid)
            if have is None or (
                "node" not in (have.get("labels") or {})
                and "node" in (span.get("labels") or {})
            ):
                merged[sid] = span

        # Local spans: the trace's bucket plus the bucket keyed by the
        # submit span id itself (cluster.stream lands there — it is
        # recorded under a remote parent, like backend spans are).
        collector = get_collector()
        for span in collector.spans_for_member(trace_key):
            fold(span)
        for span in collector.spans(trace_key):
            fold(span)

        nodes_doc = []
        for item in results:
            if item is None:
                continue
            node, reply, t0, t1 = item
            skew = 0.0
            backend_now = reply.get("now")
            if isinstance(backend_now, (int, float)):
                # NTP-style midpoint estimate from this very call; an
                # offset within the probe RTT is indistinguishable from
                # transit time, so only larger offsets are corrected.
                offset = float(backend_now) - (t0 + (t1 - t0) / 2.0)
                rtt = node.probe_rtt if node.probe_rtt else (t1 - t0)
                if abs(offset) > max(rtt, 0.005):
                    skew = offset
            node_spans = label_spans(reply.get("spans"), node.node_id)
            if skew:
                for span in node_spans:
                    if isinstance(span.get("started"), (int, float)):
                        span["started"] = float(span["started"]) - skew
            for span in node_spans:
                fold(span)
            nodes_doc.append({
                "node": node.node_id,
                "n_spans": len(node_spans),
                "skew_seconds": round(skew, 6),
                "probe_rtt_seconds": node.probe_rtt,
            })
        return {
            "ok": True,
            "role": "cluster",
            "node_id": self.node_id,
            "trace": trace_key,
            "job_id": job.rid if job is not None else None,
            "spans": list(merged.values()),
            "nodes": nodes_doc,
            "now": time.time(),
        }

    # -- streaming -------------------------------------------------------------
    async def job_events(self, rid: Any):
        """Yield a job's wire documents — ack first, then every event —
        surviving backend death.

        This is the one stream implementation behind both wire surfaces:
        the TCP ``op: stream`` relay of :class:`JobServer` and the HTTP
        gateway's SSE endpoint consume it and only differ in framing.

        On a mid-stream backend failure the job is re-dispatched (dead
        node excluded) and the replacement's stream takes over in the
        same generator.  The replacement replays its own history from
        the top, so consumers may see planning/fragment events again —
        duplicates are benign (the terminal result is deterministic);
        what never happens is a silently broken stream.  Streams pin
        their node's ``n_active_streams`` while attached, which is what
        drain-mode membership removal waits on.

        A born-done job (its owner answered the submit from cache, or
        the result memo did) is answered here from the terminal event
        its submit reply carried: the same ack, then that event — the
        history the owner would replay — with no backend call, so it
        streams even after its owner is gone.
        """
        job = self._job(rid)
        ack_sent = False
        stream_started = time.perf_counter()

        def note_stream_span() -> None:
            # The relay's wall clock as a span under the submit span:
            # assembled traces show stream time (and with it SSE hold
            # time at the gateway) next to the backend's compute.
            with remote_parent(job.trace_id):
                record_span("cluster.stream",
                            time.perf_counter() - stream_started,
                            registry=self.obs,
                            histogram_labels={"node": self.node_id},
                            job=job.rid, node=self.node_id)

        if job.terminal_event is not None:
            yield {"ok": True, "job_id": job.rid, "state": job.state,
                   "node": job.node_id, "trace": job.trace_id}
            yield job.terminal_event
            note_stream_span()
            return

        exclude: Set[str] = set()
        while True:
            # A node stays excluded only while it is actually down:
            # during a rolling restart every backend dies *briefly*,
            # and a grow-only set would eventually exclude the whole
            # healthy pool and fail a recoverable job.
            exclude = {
                nid for nid in exclude if not self.pool.is_healthy(nid)
            }
            try:
                node_id, bid = await self._ensure_assignment(job, exclude)
            except (ClusterError, ServiceError) as exc:
                if ack_sent:
                    self._complete(job, "failed")
                    note_stream_span()
                    yield {"event": "error", "error": f"ClusterError: {exc}"}
                else:
                    yield {"ok": False, "error": "no-backends",
                           "message": str(exc)}
                return
            node = self.pool.node(node_id)
            node.n_active_streams += 1
            conn = None
            try:
                # A SIGSTOP'd backend accepts the connection (kernel
                # backlog) but never sends the ack — the stall guard
                # must cover this first read, not just inter-event ones.
                ack_line, conn = await self.pool.request(
                    node, {"op": "stream", "job_id": bid},
                    self.backend_timeout if self.stream_timeout is None
                    else self.stream_timeout,
                )
                breader = conn[0]
                ack = decode_line(ack_line)
                if not ack.get("ok"):
                    # Backend is alive but lost the job (restart):
                    # re-dispatch without excluding the node.
                    self.pool.release(node, conn)
                    conn = None
                    self._clear_assignment(job)
                    continue
                if not ack_sent:
                    yield {"ok": True, "job_id": job.rid,
                           "state": ack.get("state"), "node": node_id,
                           "trace": job.trace_id}
                    ack_sent = True
                while True:
                    if self.stream_timeout is not None:
                        # A backend that stalls mid-stream (paused, not
                        # dead — SIGSTOP) would otherwise hang this
                        # readline forever; the timeout lands in the
                        # failover except-clause below.
                        line = await asyncio.wait_for(
                            breader.readline(), timeout=self.stream_timeout
                        )
                    else:
                        line = await breader.readline()
                    if not line:
                        raise ConnectionError("EOF mid-stream")
                    event = decode_line(line)
                    name = event.get("event")
                    if name in TERMINAL_EVENTS:
                        # The backend's connection loop is back in
                        # request/reply mode: the wire is clean.
                        self.pool.release(node, conn)
                        conn = None
                        # Recorded before the event leaves: a client
                        # that has the result finds its digest indexed.
                        self._complete(job, _EVENT_STATE[name], event)
                    yield event
                    if name in TERMINAL_EVENTS:
                        note_stream_span()
                        return
            except (BackendDown, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                self.pool.mark_down(
                    node_id, f"stream: {type(exc).__name__}: {exc}"
                )
                exclude.add(node_id)
                self._note_failover()
                self._clear_assignment(job)
                continue
            finally:
                node.n_active_streams -= 1
                if conn is not None:  # mid-stream: not reusable
                    conn[1].close()


# -- embedding helpers ---------------------------------------------------------

class RouterHandle(LoopHandle):
    """A router running on a private event loop in a daemon thread —
    the router-flavoured :class:`~repro.service.jobserver.LoopHandle`."""

    def __init__(self, router: ShardRouter,
                 loop: asyncio.AbstractEventLoop, thread: threading.Thread) -> None:
        super().__init__(router, loop, thread)
        self.router = router


def router_background(**kwargs: Any) -> RouterHandle:
    """Start a :class:`ShardRouter` on a fresh loop in a daemon thread;
    returns once the socket is bound (and log replay is registered)."""
    router, loop, thread = run_background_loop(
        lambda: ShardRouter(**kwargs), "repro-router",
        ClusterError, "shard router",
    )
    return RouterHandle(router, loop, thread)


def _banner(router: ShardRouter) -> str:
    host, port = router.address
    healthy = len(router.pool.healthy_ids())
    return (
        f"repro cluster router listening on {host}:{port} "
        f"({healthy}/{len(router.pool.nodes)} backends healthy"
        f"{', durable' if router.job_log is not None else ''}"
        f"{', indexed' if router.result_index is not None else ''}"
        f"{f', rf={router.replication_factor}' if router.replication_factor > 1 else ''}"
        f"{', quotas' if router.quota is not None else ''})"
    )


def serve_cluster_forever(**kwargs: Any) -> None:
    """Run a router in the foreground until interrupted (the CLI path)."""
    run_forever(lambda: ShardRouter(**kwargs), _banner, "cluster router stopped")
