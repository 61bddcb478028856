"""The asyncio detection service.

One process, three moving parts:

* a TCP protocol loop (:meth:`DetectionService._handle_connection`)
  speaking the JSON-lines protocol of :mod:`repro.service.protocol`;
* a bounded priority :class:`~repro.service.queue.JobQueue` with
  reject-with-retry-after backpressure;
* ``workers`` worker coroutines, each draining the queue and running
  jobs on a thread pool via the engine's streaming path
  (:func:`repro.engine.run_stream`) — every tile-planned / partition
  fragment event is forwarded to the job's subscribers the moment the
  engine produces it, so clients watch detections accumulate instead of
  waiting for the merge.

Cache integration: submissions are content-addressed
(:func:`repro.engine.schema.request_key`) and consulted against the
optional :class:`~repro.engine.cache.ResultCache` *before* queueing — a
hit completes the job instantly without occupying a queue slot or a
worker; misses publish their merged result back into the cache.

Threading: the event loop owns all job/queue state.  Engine work runs on
a thread pool sized to ``workers``; the only loop-state touches from
those threads go through ``loop.call_soon_threadsafe``, and the only
thread-state read from job control is the monotonic
``Job.cancel_requested`` flag (checked between engine events, so a
cancel lands at the next fragment boundary).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

from repro.engine import run_stream
from repro.engine.cache import ResultCache, result_to_json
from repro.engine.schema import ResultEvent, request_key
from repro.errors import (
    DeadlineExceededError,
    JobNotFoundError,
    QueueFullError,
    ServiceError,
)
from repro.obs import (
    Histogram,
    MetricsRegistry,
    get_registry,
    mark_trace,
    recent_spans,
    record_span,
    remote_parent,
    render_json,
    trace as trace_block,
    trace_spans,
)
from repro.service.jobs import Job, JobState
from repro.service.protocol import (
    MAX_LINE_BYTES,
    TERMINAL_EVENTS,
    SpecMemo,
    decode_line,
    encode_line,
    error_reply,
    event_to_wire,
    request_from_wire,
)
from repro.service.queue import JobQueue

__all__ = [
    "DetectionService",
    "LoopHandle",
    "ServiceHandle",
    "run_background_loop",
    "serve_background",
    "serve_forever",
]

#: JobState → job-log completion state.
_STATE_TO_LOG = {
    JobState.DONE: "done",
    JobState.FAILED: "failed",
    JobState.CANCELLED: "cancelled",
}

#: Terminal jobs retained for status/stream replay before the oldest
#: are forgotten (a long-lived server must not accumulate every job ever).
DEFAULT_JOB_RETENTION = 1024


class _JobCancelled(Exception):
    """Internal: a worker thread observed the job's cancel flag."""


class DetectionService:
    """Async detection service over the unified engine.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks a free port (see :attr:`address`).
    workers:
        Engine worker slots — concurrent jobs.  ``0`` accepts and queues
        but never dispatches (deterministic queue-state testing).
    queue_size:
        Max jobs admitted but not yet dispatched; submissions beyond it
        are rejected with a ``retry_after`` hint.
    cache:
        Optional :class:`ResultCache` consulted before dispatch and
        published to after merge.
    executor:
        Optional executor-choice override (``serial``/``thread``/
        ``process``/``auto``) forced onto every dispatched request —
        the service owns parallelism policy, not its clients.
    job_log:
        Optional durable job log (a :class:`~repro.cluster.joblog.JobLog`
        or a path): every queued submission is recorded and every
        terminal transition completes it, so a restarted service with
        the same log re-admits the jobs that were pending — under their
        original job ids, so clients' handles survive the restart.
    quota:
        Optional per-client :class:`~repro.cluster.quota.QuotaPolicy`;
        over-limit submits are rejected with the retry-after shape.
    node_id:
        Stable identity reported in :meth:`stats` (cluster routers read
        it); defaults to a fresh ``svc-…`` id per process.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_size: int = 16,
        cache: Optional[ResultCache] = None,
        executor: Optional[str] = None,
        job_retention: int = DEFAULT_JOB_RETENTION,
        job_log: Any = None,
        quota: Any = None,
        node_id: Optional[str] = None,
    ) -> None:
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        self.host = host
        self.port = port
        self.workers = workers
        self.cache = cache
        self.executor = executor
        self.job_retention = max(1, job_retention)
        if isinstance(job_log, (str, os.PathLike)):
            # Lazy import: repro.cluster imports repro.service at module
            # scope; this direction must resolve at call time only.
            from repro.cluster.joblog import JobLog

            job_log = JobLog(job_log)
        self.job_log = job_log
        self.quota = quota
        self.node_id = node_id or f"svc-{uuid.uuid4().hex[:8]}"
        #: Fault-injection hook (chaos harness): seconds of artificial
        #: latency added before every request/reply answer.  Pushing it
        #: past a router's probe timeout simulates a slow-but-alive
        #: node; 0.0 (the default) is a no-op.
        self.response_delay = 0.0
        self.started_at = time.monotonic()
        self.n_replayed = 0
        self._queue = JobQueue(max_pending=queue_size)
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._worker_tasks: list = []
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-engine"
        )
        # Request parsing (base64 pixels, threshold scans, image hashing)
        # is O(pixels) numpy work: it runs here, never on the event loop,
        # and never behind long engine jobs in the worker pool.
        self._parse_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-parse"
        )
        self.n_submitted = 0
        self.n_dispatched = 0
        self.n_cache_hits = 0
        self.n_cache_misses = 0
        # Instance-private metrics registry: per-stage latency histograms
        # (the op:stats ``stage_latency`` doc is built from these — the
        # successor to the old bespoke ``StageLatencies`` class), live
        # queue gauges, and lifecycle counters.  Exposed via op:metrics
        # merged with the process-wide engine registry.
        self.obs = MetricsRegistry()
        self._stage_hist: "OrderedDict[str, Histogram]" = OrderedDict()
        self._stage_lock = threading.Lock()
        self._spec_memo = SpecMemo(self.obs)
        self._accepted = self.obs.counter(
            "service_connections_accepted_total",
            help="Client connections accepted since start.",
        )
        self.obs.gauge(
            "service_connections_open",
            help="Client connections currently open.",
            fn=lambda: len(self._connections),
        )
        self.obs.gauge(
            "service_queue_depth",
            help="Jobs admitted but not yet dispatched.",
            fn=lambda: self._queue.depth,
        )
        self.obs.gauge(
            "service_queue_capacity",
            help="Queue admission limit.",
            fn=lambda: self._queue.max_pending,
        )
        if self.job_log is not None:
            self.obs.gauge(
                "service_wal_appends",
                help="Records appended to the durable job log.",
                fn=lambda: self.job_log.n_appended,
            )
            self.obs.gauge(
                "service_wal_compactions",
                help="Compaction passes on the durable job log.",
                fn=lambda: self.job_log.n_compactions,
            )

    # -- obs helpers -----------------------------------------------------------
    def _record_stage(self, stage: str, seconds: float) -> None:
        """Record one pipeline-stage duration (parse/queue_wait/run).

        The per-stage histograms live in :attr:`obs` under
        ``service_stage_seconds{stage=...}``; a side index keeps
        first-record order so the legacy ``stage_latency`` doc lists
        stages in the order they first ran, as the old class did.
        """
        with self._stage_lock:
            hist = self._stage_hist.get(stage)
            if hist is None:
                hist = self.obs.histogram(
                    "service_stage_seconds",
                    help="Pipeline stage durations (parse/queue_wait/run); "
                         "parse times full parses only — a repeat spec "
                         "answered from the fingerprint memo has none.",
                    stage=stage,
                )
                self._stage_hist[stage] = hist
        hist.observe(seconds)

    def _count_submission(self, outcome: str) -> None:
        self.obs.counter(
            "service_submissions_total",
            help="Job submissions, by admission outcome.",
            outcome=outcome,
        ).inc()

    def _stage_latency_doc(self) -> Dict[str, Dict[str, float]]:
        doc: Dict[str, Dict[str, float]] = {}
        with self._stage_lock:
            stages = list(self._stage_hist.items())
        for stage, hist in stages:
            snap = hist.snapshot()
            if snap:
                doc[stage] = snap
        return doc

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.started_at = time.monotonic()
        if self.job_log is not None:
            await self._replay_pending()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"repro-worker-{i}")
            for i in range(self.workers)
        ]

    async def _replay_pending(self) -> None:
        """Re-admit the job log's pending submissions (restart path).

        Original job ids are preserved, so a client holding a pre-restart
        id can still status/stream its job.  Specs that no longer parse
        are completed as failed; jobs the queue cannot admit stay pending
        in the log for the next restart.
        """
        for pending in self.job_log.replay().pending.values():
            if pending.job_id in self._jobs:
                continue
            try:
                request, key = await self._parse_on_thread(pending.spec)
            except ServiceError:
                self.job_log.log_complete(pending.job_id, "failed")
                continue
            try:
                self.admit(
                    request, key, pending.priority,
                    job_id=pending.job_id, already_logged=True,
                )
            except QueueFullError:
                continue  # still pending; the next restart retries
            self.n_replayed += 1

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("service is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._worker_tasks = []
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Sever live connections too: a stopped service must look dead
        # to its peers *now* — a cluster router streaming a job from a
        # killed in-process backend relies on this EOF to fail over.
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        await asyncio.sleep(0)  # let connection_lost callbacks run
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._parse_pool.shutdown(wait=False, cancel_futures=True)
        if self.cache is not None:
            self.cache.flush()
        if self.job_log is not None:
            self.job_log.close()

    # -- job control (loop thread) ---------------------------------------------
    def _parse_spec(self, spec: Dict[str, Any]):
        """Spec → (request, key).  O(pixels); runs on the parse thread."""
        parse_started = time.monotonic()
        request = request_from_wire(spec)
        key = request_key(request)
        self._record_stage("parse", time.monotonic() - parse_started)
        return request, key

    def _parse_on_thread(self, spec: Dict[str, Any]):
        """Awaitable :meth:`_parse_spec` on the parse thread."""
        return asyncio.get_running_loop().run_in_executor(
            self._parse_pool, self._parse_spec, spec
        )

    def _check_quota(self, client: Optional[str]) -> None:
        if self.quota is None:
            return
        try:
            self.quota.check(client)  # raises QuotaExceededError
        except ServiceError:
            self.obs.counter(
                "service_quota_rejections_total",
                help="Submissions rejected by per-client quota.",
            ).inc()
            raise

    def submit(self, spec: Dict[str, Any], priority: int = 0,
               timeout: float = 30.0, client: Optional[str] = None) -> Dict[str, Any]:
        """Parse and admit one job spec — the blocking embedding API.

        Loop state (queue, registry, subscriber fan-out) is only touched
        on the loop thread: called from any other thread (e.g. against a
        :func:`serve_background` handle), admission is marshalled over
        with ``run_coroutine_threadsafe`` — a bare ``put_nowait`` from a
        foreign thread would enqueue without waking the loop, leaving
        the job queued forever.  The protocol loop itself parses on the
        parse thread via :meth:`_submit_async` instead.
        """
        self._check_quota(client)
        request, key = self._parse_spec(spec)
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                running = asyncio.get_running_loop()
            except RuntimeError:
                running = None
            if running is not loop:
                return asyncio.run_coroutine_threadsafe(
                    self._admit_on_loop(request, key, priority, spec, client), loop
                ).result(timeout=timeout)
        return self.admit(request, key, priority, spec=spec, client=client)

    async def _admit_on_loop(self, request, key, priority: int,
                             spec=None, client=None) -> Dict[str, Any]:
        return self.admit(request, key, priority, spec=spec, client=client)

    async def _submit_async(
        self, msg: Dict[str, Any], peer: Optional[str] = None
    ) -> Dict[str, Any]:
        """The protocol loop's submit: every check of :meth:`admit`,
        but a spec this process already parsed is not parsed again
        unless its result has left the cache.

        The memo is only consulted when there is a cache for its key to
        hit; the key it returns is one :meth:`_parse_spec` produced
        here for a byte-identical spec, so a hit proves the spec valid
        and is admitted born-done without a :class:`DetectionRequest`
        ever being built.
        """
        client = msg.get("client") or peer
        self._check_quota(client)
        spec = msg.get("job")
        fingerprint = key = request = None
        if self.cache is not None:
            fingerprint, key = self._spec_memo.lookup(spec)
        if key is None:
            request, key = await self._parse_on_thread(spec)
            self._spec_memo.remember(fingerprint, key)
        job = self._new_job(request, key, msg.get("priority", 0),
                            deadline=msg.get("deadline"),
                            trace_id=msg.get("trace"))
        hit = self._cache_lookup(key)
        if hit is not None:
            return self._admit_done(job, hit)
        if request is None:  # memoised key, evicted result: parse after all
            job.request, _ = await self._parse_on_thread(spec)
        return self._enqueue(job, spec, client)

    def admit(
        self,
        request,
        key,
        priority: int = 0,
        spec: Optional[Dict[str, Any]] = None,
        client: Optional[str] = None,
        job_id: Optional[str] = None,
        already_logged: bool = False,
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Admit a parsed request; returns the wire reply.

        Raises :class:`QueueFullError` (backpressure) and
        :class:`ServiceError` (bad priority) for the handler to map
        onto error replies.  When a job log is configured and *spec* is
        given, queued admissions are recorded for restart replay (cache
        hits are not — they are already complete); *job_id* /
        *already_logged* are the replay path re-admitting a logged job
        under its original identity.  *deadline* (seconds of client
        budget left, from the wire) arms work-shedding: a queued job
        whose budget expires before a worker reaches it fails with
        ``deadline-exceeded`` instead of burning chains for a client
        that already gave up.  *trace_id* parents the run's engine
        spans under the submitter's span.
        """
        job = self._new_job(request, key, priority, job_id=job_id,
                            already_logged=already_logged,
                            deadline=deadline, trace_id=trace_id)
        hit = self._cache_lookup(key)
        if hit is not None:
            return self._admit_done(job, hit)
        return self._enqueue(job, spec, client)

    def _new_job(
        self,
        request,
        key,
        priority: int,
        job_id: Optional[str] = None,
        already_logged: bool = False,
        deadline: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Job:
        """Validate the per-submit fields and build the (unregistered)
        job; see :meth:`admit` for what each one means."""
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServiceError(f"priority must be an integer, got {priority!r}")
        job = Job(request=request, key=key, priority=priority)
        if job_id is not None:
            job.id = job_id
        job.logged = already_logged and self.job_log is not None
        if isinstance(deadline, (int, float)) and not isinstance(deadline, bool):
            job.deadline_at = time.monotonic() + max(0.0, float(deadline))
        if isinstance(trace_id, str) and trace_id:
            job.trace_id = trace_id
        return job

    def _cache_lookup(self, key: Optional[str]):
        """The admission-time cache lookup, counted once per submit."""
        if self.cache is None or not key:
            return None
        hit = self.cache.get(key)
        self.obs.counter(
            "service_cache_lookups_total",
            help="Admission-time result-cache lookups, by outcome.",
            result="hit" if hit is not None else "miss",
        ).inc()
        if hit is None:
            self.n_cache_misses += 1
        return hit

    def _admit_done(self, job: Job, hit) -> Dict[str, Any]:
        """A cache hit completes the job at admission: no queue slot,
        no worker, no request."""
        self.n_cache_hits += 1
        self.n_submitted += 1
        self._count_submission("cache_hit")
        job.cached = True
        job.result = hit
        job.started_at = time.monotonic()
        self._finish(job, JobState.DONE,
                     {"event": "result", "cached": True,
                      "result": result_to_json(hit)})
        self._register(job)
        return {"ok": True, "job_id": job.id, "cached": True, "state": job.state.value}

    def _enqueue(self, job: Job, spec: Optional[Dict[str, Any]],
                 client: Optional[str]) -> Dict[str, Any]:
        """A miss queues the job (and logs it for restart replay)."""
        try:
            self._queue.put(job)  # raises QueueFullError when at capacity
        except QueueFullError:
            self._count_submission("queue_full")
            raise
        if self.job_log is not None and spec is not None and not job.logged:
            self.job_log.log_submit(
                job.id, spec, key=job.key, client=client, priority=job.priority
            )
            job.logged = True
        self.n_submitted += 1
        self._count_submission("queued")
        job.publish({"event": "state", "state": JobState.QUEUED.value})
        self._register(job)
        return {
            "ok": True,
            "job_id": job.id,
            "cached": False,
            "state": job.state.value,
            "queue_depth": self._queue.depth,
        }

    def cancel(self, job_id: str) -> Dict[str, Any]:
        job = self._job(job_id)
        if job.terminal:
            return {"ok": True, "job_id": job.id, "state": job.state.value,
                    "cancelled": job.state is JobState.CANCELLED}
        if job.state is JobState.QUEUED and self._queue.discard(job):
            self._finish(job, JobState.CANCELLED, {"event": "cancelled"})
            return {"ok": True, "job_id": job.id, "state": job.state.value, "cancelled": True}
        # Running: cooperative — the worker thread stops at the next
        # engine event boundary.
        job.cancel_requested = True
        return {"ok": True, "job_id": job.id, "state": job.state.value,
                "cancelled": False, "cancel_requested": True}

    def status(self, job_id: str) -> Dict[str, Any]:
        return {"ok": True, **self._job(job_id).status()}

    def stats(self) -> Dict[str, Any]:
        states: Dict[str, int] = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            states[job.state.value] += 1
        doc: Dict[str, Any] = {
            "role": "service",
            "node_id": self.node_id,
            "uptime_seconds": time.monotonic() - self.started_at,
            "queue_depth": self._queue.depth,
            "queue_capacity": self._queue.max_pending,
            "workers": self.workers,
            "jobs": states,
            "n_submitted": self.n_submitted,
            "n_dispatched": self.n_dispatched,
            "n_cache_hits": self.n_cache_hits,
            "n_cache_misses": self.n_cache_misses,
            "cache_hit_rate": (
                self.n_cache_hits / (self.n_cache_hits + self.n_cache_misses)
                if (self.n_cache_hits + self.n_cache_misses) else None
            ),
            "n_rejected": self._queue.n_rejected,
            "n_replayed": self.n_replayed,
            "n_connections_accepted": int(self._accepted.value),
            "n_connections_open": len(self._connections),
            "stage_latency": self._stage_latency_doc(),
            "cache": self.cache.summary() if self.cache is not None else None,
        }
        if self.quota is not None:
            doc["quota"] = self.quota.snapshot()
        if self.job_log is not None:
            # Cheap fields only: stats is the health-probe op, polled
            # every probe interval — no full log scan here.
            doc["job_log"] = {
                "path": str(self.job_log.path),
                "n_appended": self.job_log.n_appended,
                "n_compactions": self.job_log.n_compactions,
            }
        return doc

    def metrics(self, include_spans: bool = False) -> Dict[str, Any]:
        """The ``op:metrics`` document: this instance's registry merged
        with the process-wide engine registry, as exposition JSON."""
        doc: Dict[str, Any] = {
            "ok": True,
            "role": "service",
            "node_id": self.node_id,
            "metrics": render_json(self.obs, get_registry()),
        }
        if include_spans:
            doc["spans"] = recent_spans(64)
        return doc

    def trace_doc(self, trace_id: Any = None,
                  job_id: Any = None) -> Dict[str, Any]:
        """The ``op:trace`` document: this process's buffered spans for
        one trace, plus a wall-clock sample for skew estimation.

        The router calls this on every backend a job touched and
        merges the replies under its own submit span; *trace_id* is
        the router's submit span id (the key the backend buffered
        under, via :func:`repro.obs.remote_parent`).  A local *job_id*
        resolves through the job table instead.
        """
        if not trace_id and job_id is not None:
            trace_id = self._job(job_id).trace_id
        spans = trace_spans(str(trace_id)) if trace_id else []
        return {
            "ok": True,
            "role": "service",
            "node_id": self.node_id,
            "trace": trace_id,
            "spans": spans,
            "now": time.time(),
        }

    def _job(self, job_id: Any) -> Job:
        job = self._jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return job

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._jobs) > self.job_retention:
            # Forget the oldest *terminal* job; never drop live ones.
            for jid, old in self._jobs.items():
                if old.terminal:
                    del self._jobs[jid]
                    break
            else:
                break

    def _finish(self, job: Job, state: JobState, event: Dict[str, Any]) -> None:
        job.state = state
        job.finished_at = time.monotonic()
        if state is JobState.FAILED:
            # Tail sampling: errored / deadline-shed traces are always
            # retained, so the buffer still holds them when an operator
            # asks for the trace after the fact.
            mark_trace(job.trace_id, error=True,
                       deadline=bool(event.get("deadline_exceeded")))
        self.obs.counter(
            "service_jobs_total",
            help="Jobs reaching a terminal state, by outcome.",
            state=state.value,
        ).inc()
        if self.job_log is not None and job.logged:
            self.job_log.log_complete(job.id, _STATE_TO_LOG[state])
        # Terminal jobs live on only for status/replay: drop the request
        # (which pins the image pixels) and the strategy's raw detail
        # object, so retention holds wire documents — not images.
        job.request = None
        if job.result is not None and job.result.raw is not None:
            job.result = replace(job.result, raw=None)
        job.publish(event)

    # -- worker side -----------------------------------------------------------
    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job.terminal:
                continue
            if job.cancel_requested:
                self._finish(job, JobState.CANCELLED, {"event": "cancelled"})
                continue
            if job.deadline_at is not None and time.monotonic() >= job.deadline_at:
                # The client's propagated deadline expired while the job
                # sat queued: shed it — running chains for a caller that
                # already gave up wastes a worker slot.
                self.obs.counter(
                    "service_deadline_shed_total",
                    help="Queued jobs shed because their wire deadline expired.",
                ).inc()
                job.error = (
                    f"DeadlineExceededError: job {job.id} shed — "
                    "deadline expired before dispatch"
                )
                self._finish(job, JobState.FAILED,
                             {"event": "error", "error": job.error,
                              "deadline_exceeded": True})
                continue
            job.state = JobState.RUNNING
            job.started_at = time.monotonic()
            self._record_stage(
                "queue_wait", job.started_at - job.submitted_at
            )
            # Queue wait as a real span so assembled traces show the
            # time a job sat admitted-but-undispatched.
            with remote_parent(job.trace_id):
                record_span("service.queue_wait",
                            job.started_at - job.submitted_at,
                            registry=self.obs,
                            histogram_labels={"node": self.node_id},
                            job=job.id, node=self.node_id)
            job.publish({"event": "state", "state": JobState.RUNNING.value})
            self.n_dispatched += 1
            try:
                result = await loop.run_in_executor(
                    self._pool, self._run_job, job, loop
                )
            except _JobCancelled:
                self._finish(job, JobState.CANCELLED, {"event": "cancelled"})
            except Exception as exc:  # engine failure must not kill the worker
                job.error = f"{type(exc).__name__}: {exc}"
                self._finish(job, JobState.FAILED,
                             {"event": "error", "error": job.error})
            else:
                job.result = result
                if self.cache is not None and job.key:
                    self.cache.put(job.key, result)
                elapsed = time.monotonic() - job.started_at
                self._queue.record_duration(elapsed)
                self._record_stage("run", elapsed)
                self._finish(job, JobState.DONE,
                             {"event": "result", "cached": False,
                              "result": result_to_json(result)})

    def _run_job(self, job: Job, loop: asyncio.AbstractEventLoop):
        """Engine-thread body: stream the run, forward events to the loop.

        Every ``call_soon_threadsafe`` here is enqueued before this
        function returns, and the worker coroutine resumes only after
        the executor future's own loop callback — so subscribers always
        see fragments before the terminal event.
        """
        from repro.parallel.sharedmem import clear_worker_image

        request = job.request
        if self.executor is not None:
            request = replace(request, executor=self.executor)
        result = None
        # Engine spans recorded on this thread (engine.run_stream etc.)
        # parent under the submitter's wire-propagated span, so a
        # cluster scrape shows backend work nested under the router's
        # submit span.  The contextvar set here is thread-local to this
        # executor thread for the duration of the run.
        with remote_parent(job.trace_id), \
                trace_block("service.run", registry=self.obs,
                            node=self.node_id):
            gen = run_stream(request)
            try:
                for event in gen:
                    if job.cancel_requested:
                        raise _JobCancelled()
                    if isinstance(event, ResultEvent):
                        result = event.result
                    else:
                        try:
                            loop.call_soon_threadsafe(
                                job.publish, event_to_wire(event)
                            )
                        except RuntimeError:
                            # Loop shut down mid-job (service killed):
                            # stop the orphaned engine thread quietly.
                            raise _JobCancelled() from None
            finally:
                gen.close()  # tears down the AsyncExecutor on early exit
                clear_worker_image()  # don't pin the image in the thread
        if result is None:  # pragma: no cover - run_stream always terminates
            raise ServiceError("engine stream ended without a result")
        return result

    # -- protocol loop ---------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else None
        self._connections.add(writer)
        self._accepted.inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # line over MAX_LINE_BYTES
                    writer.write(encode_line(
                        {"ok": False, "error": "bad-request",
                         "message": "protocol line too long"}))
                    await writer.drain()
                    break
                if not line.strip():
                    if not line:
                        break  # EOF
                    continue
                try:
                    msg = decode_line(line)
                    op = msg.get("op")
                    if op == "stream":
                        await self._stream_job(msg.get("job_id"), writer)
                        continue
                    if op == "submit":
                        reply = await self._submit_async(msg, peer)
                    else:
                        reply = self._dispatch_op(op, msg)
                except ServiceError as exc:
                    reply = error_reply(exc)
                if self.response_delay > 0:
                    await asyncio.sleep(self.response_delay)
                writer.write(encode_line(reply))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    def _dispatch_op(self, op: Any, msg: Dict[str, Any]) -> Dict[str, Any]:
        if op == "status":
            return self.status(msg.get("job_id"))
        if op == "cancel":
            return self.cancel(msg.get("job_id"))
        if op == "stats":
            return {"ok": True, **self.stats()}
        if op == "metrics":
            return self.metrics(include_spans=bool(msg.get("spans")))
        if op == "trace":
            return self.trace_doc(trace_id=msg.get("trace"),
                                  job_id=msg.get("job_id"))
        if op == "ping":
            return {"ok": True, "pong": True}
        raise ServiceError(f"unknown op {op!r}")

    async def job_events(self, job_id: Any):
        """All of one job's stream documents, ack first: replay the
        job's history, then follow live until a terminal event.

        The single stream implementation behind both transports — the
        TCP ``op: stream`` proxy writes each yielded document as a
        JSON line, the HTTP gateway frames the *same* documents as SSE
        ``data:`` payloads — which is what keeps the two byte-identical.
        Raises :class:`JobNotFoundError` before the first yield for an
        unknown id, so consumers can still choose their error framing.
        """
        job = self._job(job_id)
        events = job.subscribe()
        try:
            yield {"ok": True, "job_id": job.id, "state": job.state.value,
                   "trace": job.trace_id}
            while True:
                event = await events.get()
                yield event
                if event.get("event") in TERMINAL_EVENTS:
                    break
        finally:
            job.unsubscribe(events)

    async def _stream_job(self, job_id: Any, writer: asyncio.StreamWriter) -> None:
        """``op: stream`` — proxy :meth:`job_events` onto the wire; the
        connection then returns to the request/reply loop."""
        events = self.job_events(job_id)
        try:
            async for doc in events:
                writer.write(encode_line(doc))
                await writer.drain()
        finally:
            await events.aclose()


# -- embedding helpers ---------------------------------------------------------

class LoopHandle:
    """A server object running on a private event loop in a daemon
    thread.  The object must expose an ``address`` property and an
    ``async stop()``; subclasses add a named attribute for it.  Shared
    by the service's :class:`ServiceHandle` and the cluster router's
    :class:`~repro.cluster.router.RouterHandle`.
    """

    def __init__(self, obj: Any, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self._obj = obj
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def address(self) -> Tuple[str, int]:
        future = asyncio.run_coroutine_threadsafe(self._address(), self._loop)
        return future.result(timeout=5)

    async def _address(self) -> Tuple[str, int]:
        return self._obj.address

    def stop(self, timeout: float = 10.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        asyncio.run_coroutine_threadsafe(
            self._obj.stop(), self._loop
        ).result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "LoopHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ServiceHandle(LoopHandle):
    """A service running on a private event loop in a daemon thread.

    The bridge tests / benchmarks / notebooks use: start with
    :func:`serve_background`, talk to ``handle.address`` with a
    :class:`~repro.service.client.ServiceClient`, then :meth:`stop`.
    """

    def __init__(self, service: DetectionService,
                 loop: asyncio.AbstractEventLoop, thread: threading.Thread) -> None:
        super().__init__(service, loop, thread)
        self.service = service


def run_background_loop(factory, thread_name: str, error_cls, what: str):
    """Construct ``obj = factory()``, await ``obj.start()`` on a fresh
    event loop in a daemon thread, and return ``(obj, loop, thread)``
    once start completes (socket bound, replay registered).  The one
    background-runner implementation behind :func:`serve_background`
    and the router's ``router_background``."""
    started = threading.Event()
    box: Dict[str, Any] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            obj = factory()
            loop.run_until_complete(obj.start())
        except BaseException as exc:  # surface bind/config errors
            box["error"] = exc
            started.set()
            loop.close()
            return
        box["obj"] = obj
        box["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            # Unwind lingering handler tasks (open connections at stop
            # time) so nothing dies noisily at GC with a closed loop;
            # teardown-window callbacks (asyncio's stream protocol reads
            # .exception() off cancelled tasks) are deliberately quiet.
            loop.set_exception_handler(lambda _loop, _ctx: None)
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=runner, name=thread_name, daemon=True)
    thread.start()
    if not started.wait(timeout=15):
        raise error_cls(f"{what} failed to start within 15s")
    if "error" in box:
        raise error_cls(f"{what} failed to start: {box['error']}")
    return box["obj"], box["loop"], thread


def serve_background(**kwargs: Any) -> ServiceHandle:
    """Start a :class:`DetectionService` on a fresh loop in a daemon
    thread; returns once the socket is bound."""
    service, loop, thread = run_background_loop(
        lambda: DetectionService(**kwargs), "repro-service",
        ServiceError, "detection service",
    )
    return ServiceHandle(service, loop, thread)


def serve_forever(**kwargs: Any) -> None:
    """Run a service in the foreground until interrupted (the CLI path)."""

    async def main() -> None:
        service = DetectionService(**kwargs)
        await service.start()
        host, port = service.address
        # flush: cluster harnesses parse this line to learn the port.
        print(f"repro service listening on {host}:{port} "
              f"({service.workers} workers, queue {service._queue.max_pending}"
              f"{', cached' if service.cache is not None else ''}"
              f"{', durable' if service.job_log is not None else ''})",
              flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await service.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("service stopped")
