"""The asyncio detection service.

One process, three moving parts:

* the JSON-lines connection loop and op table it inherits from
  :class:`~repro.service.jobserver.JobServer` (shared with the cluster
  router), speaking the protocol of :mod:`repro.service.protocol`;
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
Durability: an optional :class:`~repro.service.store.JobLog` records
every queued job, so a restart re-admits the pending ones.

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
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Dict, Optional

from repro.engine import run_stream
from repro.engine.cache import ResultCache, result_to_json
from repro.engine.schema import ResultEvent, request_key
from repro.errors import QueueFullError, ServiceError
from repro.obs import (
    Histogram,
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
from repro.service.jobserver import (
    JobServer,
    LoopHandle,
    run_background_loop,
    run_forever,
)
from repro.service.protocol import (
    TERMINAL_EVENTS,
    event_to_wire,
    request_from_wire,
    submit_fields,
)
from repro.service.queue import JobQueue

__all__ = [
    "DetectionService",
    "ServiceHandle",
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


class DetectionService(JobServer):
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
        Optional :class:`~repro.service.store.JobLog` (or a path): a
        restarted service with the same log re-admits the jobs that were
        pending under their original job ids.
    quota:
        Optional per-client :class:`~repro.cluster.quota.QuotaPolicy`;
        over-limit submits are rejected with the retry-after shape.
    node_id:
        Stable identity reported in :meth:`stats` (cluster routers read
        it); defaults to a fresh ``svc-…`` id per process.
    """

    role = "service"
    metric_prefix = "service"

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
        super().__init__(host, port, node_id or f"svc-{uuid.uuid4().hex[:8]}",
                         job_retention, job_log=job_log, quota=quota)
        self.workers = workers
        self.cache = cache
        self.executor = executor
        self.n_replayed = 0
        self._queue = JobQueue(max_pending=queue_size)
        self._worker_tasks: list = []
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-engine"
        )
        self.n_submitted = 0
        self.n_dispatched = 0
        self.n_cache_hits = 0
        self.n_cache_misses = 0
        # Per-stage latency histograms (the op:stats ``stage_latency``
        # doc is built from these), live queue gauges, and lifecycle
        # counters, all in the instance registry.
        self._stage_hist: "OrderedDict[str, Histogram]" = OrderedDict()
        self._stage_lock = threading.Lock()
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
        await self._listen()
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
                request, key = await self._parse(self._parse_spec, pending.spec)
            except ServiceError:
                self.job_log.log_complete(pending.job_id, "failed")
                continue
            job = self._new_job(request, key, pending.priority,
                                job_id=pending.job_id, already_logged=True)
            hit = self._cache_lookup(key)
            try:
                if hit is not None:
                    self._admit_done(job, hit)
                else:
                    self._enqueue(job, None, None)
            except QueueFullError:
                continue  # still pending; the next restart retries
            self.n_replayed += 1

    async def stop(self) -> None:
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._worker_tasks = []
        await self._close()
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self.cache is not None:
            self.cache.flush()
        if self.job_log is not None:
            self.job_log.close()

    # -- admission (loop thread) -----------------------------------------------
    def _parse_spec(self, spec: Dict[str, Any]):
        """Spec → (request, key).  O(pixels); runs on the parse thread."""
        parse_started = time.monotonic()
        request = request_from_wire(spec)
        key = request_key(request)
        self._record_stage("parse", time.monotonic() - parse_started)
        return request, key

    def submit(self, spec: Dict[str, Any], priority: int = 0,
               timeout: float = 30.0, client: Optional[str] = None) -> Dict[str, Any]:
        """The blocking embedding API: one ``op: submit`` from a thread
        other than the service's own (e.g. against a
        :func:`serve_background` handle).

        Loop state (queue, registry, subscriber fan-out) is only touched
        on the loop thread, so the submit is marshalled over with
        ``run_coroutine_threadsafe`` — a bare ``put_nowait`` from a
        foreign thread would enqueue without waking the loop, leaving
        the job queued forever.
        """
        if self._loop is None or not self._loop.is_running():
            raise ServiceError("service is not running")
        with contextlib.suppress(RuntimeError):  # no loop in this thread
            if asyncio.get_running_loop() is self._loop:
                # Blocking here would deadlock the loop the submit needs.
                raise ServiceError("on the service's loop, await op_submit()")
        msg = {"op": "submit", "job": spec, "priority": priority, "client": client}
        return asyncio.run_coroutine_threadsafe(
            self.op_submit(msg), self._loop
        ).result(timeout=timeout)

    async def op_submit(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Parse and admit one job spec; returns the wire reply.

        Raises :class:`QueueFullError` (backpressure, quota) and
        :class:`ServiceError` (bad spec, priority, deadline, trace or
        client id).  A spec this process already parsed is not parsed
        again unless its result has left the cache: the memo is only
        consulted when there is a cache for its key to hit, and the key
        it returns is one :meth:`_parse_spec` produced here for a
        byte-identical spec — so a hit proves the spec valid and is
        admitted born-done without a :class:`DetectionRequest` ever
        being built.

        ``deadline`` (seconds of client budget left) arms work-shedding:
        a queued job whose budget expires before a worker reaches it
        fails with ``deadline-exceeded`` instead of burning chains for a
        client that already gave up.  ``trace`` parents the run's engine
        spans under the submitter's span.
        """
        priority, deadline_at, trace_id = submit_fields(msg)
        client = msg.get("client")
        self._check_quota(client)
        spec = msg.get("job")
        fingerprint = key = request = None
        if self.cache is not None:
            fingerprint, key = self._spec_memo.lookup(spec)
        if key is None:
            request, key = await self._parse(self._parse_spec, spec)
            self._spec_memo.remember(fingerprint, key)
        job = self._new_job(request, key, priority,
                            deadline_at=deadline_at, trace_id=trace_id)
        hit = self._cache_lookup(key)
        if hit is not None:
            return self._admit_done(job, hit)
        if request is None:  # memoised key, evicted result: parse after all
            job.request, _ = await self._parse(self._parse_spec, spec)
        return self._enqueue(job, spec, client)

    def _new_job(
        self,
        request,
        key,
        priority: int,
        job_id: Optional[str] = None,
        already_logged: bool = False,
        deadline_at: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> Job:
        """Build the (unregistered) job from :func:`submit_fields`
        output; *job_id* / *already_logged* are the replay path
        re-admitting a logged job under its original identity."""
        job = Job(request=request, key=key, priority=priority,
                  deadline_at=deadline_at, trace_id=trace_id)
        if job_id is not None:
            job.id = job_id
        job.logged = already_logged and self.job_log is not None
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
        no worker, no request.  The reply carries the job's whole
        history — its one terminal event — under ``terminal``, and the
        ``trace`` its stream ack would carry, so a caller need not
        stream it back."""
        self.n_cache_hits += 1
        self.n_submitted += 1
        self._count_submission("cache_hit")
        job.cached = True
        job.result = hit
        job.started_at = time.monotonic()
        event = {"event": "result", "cached": True,
                 "result": result_to_json(hit)}
        self._finish(job, JobState.DONE, event)
        self._register(job.id, job)
        return {"ok": True, "job_id": job.id, "cached": True,
                "state": job.state.value, "terminal": event,
                "trace": job.trace_id}

    def _enqueue(self, job: Job, spec: Optional[Dict[str, Any]],
                 client: Optional[str]) -> Dict[str, Any]:
        """A miss queues the job (and logs it for restart replay; cache
        hits are not logged — they are already complete)."""
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
        self._register(job.id, job)
        return {
            "ok": True,
            "job_id": job.id,
            "cached": False,
            "state": job.state.value,
            "queue_depth": self._queue.depth,
        }

    # -- job control (loop thread) ---------------------------------------------
    async def op_cancel(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job(msg.get("job_id"))
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

    async def op_status(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, **self._job(msg.get("job_id")).status()}

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
        return self._admission_stats(doc)

    async def op_metrics(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """The ``op:metrics`` document: this instance's registry merged
        with the process-wide engine registry, as exposition JSON; with
        ``spans``, the recent-span ring too."""
        doc: Dict[str, Any] = {
            "ok": True,
            "role": "service",
            "node_id": self.node_id,
            "metrics": render_json(self.obs, get_registry()),
        }
        if msg.get("spans"):
            doc["spans"] = recent_spans(64)
        return doc

    async def op_trace(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """The ``op:trace`` document: this process's buffered spans for
        one trace, plus a wall-clock sample for skew estimation.

        The router calls this on every backend a job touched and
        merges the replies under its own submit span; ``trace`` is the
        router's submit span id (the key the backend buffered under,
        via :func:`repro.obs.remote_parent`).  A local ``job_id``
        resolves through the job table instead.
        """
        trace_id = msg.get("trace")
        if not trace_id and msg.get("job_id") is not None:
            trace_id = self._job(msg.get("job_id")).trace_id
        spans = trace_spans(str(trace_id)) if trace_id else []
        return {
            "ok": True,
            "role": "service",
            "node_id": self.node_id,
            "trace": trace_id,
            "spans": spans,
            "now": time.time(),
        }

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
        # (which pins the image pixels), so retention holds results and
        # wire documents — not images.
        job.request = None
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

    # -- streaming -------------------------------------------------------------
    async def job_events(self, job_id: Any):
        """All of one job's stream documents, ack first: replay the
        job's history, then follow live until a terminal event.

        The single stream implementation behind both transports — the
        TCP ``op: stream`` relay writes each yielded document as a
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


# -- embedding helpers ---------------------------------------------------------

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


def serve_background(**kwargs: Any) -> ServiceHandle:
    """Start a :class:`DetectionService` on a fresh loop in a daemon
    thread; returns once the socket is bound."""
    service, loop, thread = run_background_loop(
        lambda: DetectionService(**kwargs), "repro-service",
        ServiceError, "detection service",
    )
    return ServiceHandle(service, loop, thread)


def _banner(service: DetectionService) -> str:
    host, port = service.address
    return (f"repro service listening on {host}:{port} "
            f"({service.workers} workers, queue {service._queue.max_pending}"
            f"{', cached' if service.cache is not None else ''}"
            f"{', durable' if service.job_log is not None else ''})")


def serve_forever(**kwargs: Any) -> None:
    """Run a service in the foreground until interrupted (the CLI path)."""
    run_forever(lambda: DetectionService(**kwargs), _banner, "service stopped")
