"""One JSON-lines job server under the detection service and the router.

:class:`JobServer` is what :class:`~repro.service.server.DetectionService`
and :class:`~repro.cluster.router.ShardRouter` have in common: the TCP
listener and its one connection loop, the op table, the bounded job
registry, the spec memo and parse thread, and the connection counters
every ``op:stats`` reports.  A subclass supplies the jobs — one
``op_<name>(msg)`` coroutine per request/reply op, plus
:meth:`job_events`, its single stream implementation — and inherits the
wire.

The same two entry points serve every framing.  The TCP loop below
calls :meth:`JobServer.request` once per JSON line and relays
:meth:`job_events` for ``op: stream``; the HTTP gateway
(:mod:`repro.gateway.server`) calls the very same two methods on the
same event loop.  A gateway in front of a service and one in front of a
router therefore run one job-control path, not one per target type.

Also here, shared by service, router and gateway: :class:`LoopHandle`
and :func:`run_background_loop` (a server on a private event loop in a
daemon thread) and :func:`run_forever` (the CLI's foreground runner).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import JobNotFoundError, ServiceError
from repro.obs import MetricsRegistry
from repro.service.protocol import (
    MAX_LINE_BYTES,
    SpecMemo,
    decode_line,
    encode_line,
    error_reply,
)
from repro.service.store import JobLog

__all__ = [
    "JobServer",
    "LoopHandle",
    "run_background_loop",
    "run_forever",
    "store_stats",
]


class JobServer:
    """The JSON-lines server both job targets are.

    Subclasses set :attr:`role` (their ``op:ping`` / ``op:stats``
    identity), :attr:`metric_prefix` (of the ``*_connections_*``
    series) and :attr:`not_started_error`, and implement ``stats()``,
    the ``op_submit`` / ``op_status`` / ``op_cancel`` / ``op_metrics`` /
    ``op_trace`` coroutines (the router adds ``op_route``) and the async
    generator ``job_events(job_id)``: all of one job's stream documents,
    ack first, up to the terminal event, raising
    :class:`JobNotFoundError` before the first yield for an unknown id.
    ``op_ping`` and ``op_stats`` live here.

    Every ``op_*`` takes the decoded message and returns the reply
    document, raising :class:`ServiceError` for the caller to frame —
    as a JSON line here, as an HTTP status in the gateway.
    """

    role = "server"
    metric_prefix = "server"
    not_started_error = ServiceError
    #: The backend pool a router places jobs on; ``None`` on a service.
    pool = None

    def __init__(self, host: str, port: int, node_id: str,
                 job_retention: int, job_log: Any = None,
                 quota: Any = None) -> None:
        self.host = host
        self.port = port
        self.node_id = node_id
        self.job_retention = max(1, job_retention)
        if isinstance(job_log, (str, os.PathLike)):
            job_log = JobLog(job_log)
        #: Optional durable :class:`~repro.service.store.JobLog` that
        #: lets a restarted server re-admit its pending jobs under
        #: their original ids.
        self.job_log = job_log
        #: Optional per-client :class:`~repro.cluster.quota.QuotaPolicy`.
        self.quota = quota
        #: Fault-injection hook (chaos harness): seconds of artificial
        #: latency added before every request/reply answer.  Pushing it
        #: past a router's probe timeout simulates a slow-but-alive
        #: node; 0.0 (the default) is a no-op.
        self.response_delay = 0.0
        self.started_at = time.monotonic()
        #: Instance-private metrics registry, exposed by ``op:metrics``
        #: merged with the process-wide engine registry.
        self.obs = MetricsRegistry()
        self._jobs: "OrderedDict[str, Any]" = OrderedDict()
        self._spec_memo = SpecMemo(self.obs)
        # Spec parsing (base64 pixels, threshold scans, image hashing)
        # is O(pixels) numpy work: it runs here, never on the event
        # loop, and never behind long engine jobs in a worker pool.
        self._parse_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-{self.role}-parse"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._accepted = self.obs.counter(
            f"{self.metric_prefix}_connections_accepted_total",
            help="Client connections accepted since start.",
        )
        self.obs.gauge(
            f"{self.metric_prefix}_connections_open",
            help="Client connections currently open.",
            fn=lambda: len(self._connections),
        )
        if job_log is not None:
            self.obs.gauge(
                f"{self.metric_prefix}_wal_appends",
                help="Records appended to the durable job log.",
                fn=lambda: self.job_log.n_appended,
            )
            self.obs.gauge(
                f"{self.metric_prefix}_wal_compactions",
                help="Compaction passes on the durable job log.",
                fn=lambda: self.job_log.n_compactions,
            )

    # -- listener --------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port)."""
        if self._server is None or not self._server.sockets:
            raise self.not_started_error(f"{self.role} is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def _listen(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )

    async def _close(self) -> None:
        """Stop listening, sever live connections and the parse thread.

        A stopped server must look dead to its peers *now*: a router
        streaming from a killed backend fails over on this EOF, and a
        streaming client of a stopped router reconnects instead of
        hanging."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        await asyncio.sleep(0)  # let connection_lost callbacks run
        self._parse_pool.shutdown(wait=False, cancel_futures=True)

    def _check_quota(self, client: Optional[str]) -> None:
        """Spend one of *client*'s quota tokens; over the limit raises
        :class:`~repro.errors.QuotaExceededError` (retry-after shape)."""
        if self.quota is None:
            return
        try:
            self.quota.check(client)
        except ServiceError:
            self.obs.counter(
                f"{self.metric_prefix}_quota_rejections_total",
                help="Submissions rejected by per-client quota.",
            ).inc()
            raise

    def _admission_stats(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Add the quota and job-log entries to an ``op:stats`` doc."""
        if self.quota is not None:
            doc["quota"] = self.quota.snapshot()
        if self.job_log is not None:
            doc["job_log"] = store_stats(self.job_log)
        return doc

    def _parse(self, fn: Callable[[Any], Any], spec: Any):
        """Awaitable ``fn(spec)`` on the parse thread."""
        return asyncio.get_running_loop().run_in_executor(
            self._parse_pool, fn, spec
        )

    # -- job registry ----------------------------------------------------------
    def _job(self, job_id: Any):
        job = self._jobs.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return job

    def _register(self, job_id: str, job: Any) -> None:
        self._jobs[job_id] = job
        while len(self._jobs) > self.job_retention:
            # Forget the oldest *terminal* job; never drop live ones.
            for old_id, old in self._jobs.items():
                if old.terminal:
                    del self._jobs[old_id]
                    break
            else:
                break

    # -- ops -------------------------------------------------------------------
    async def request(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one request/reply message: ``op`` ``x`` is
        ``self.op_x(msg)``.  Raises :class:`ServiceError` (unknown op,
        bad message, the op's own rejections)."""
        op = msg.get("op")
        handler = getattr(self, f"op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            raise ServiceError(f"unknown op {op!r}")
        return await handler(msg)

    async def op_ping(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "pong": True, "role": self.role}

    async def op_stats(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, **self.stats()}

    # -- connection loop -------------------------------------------------------
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
                    if msg.get("op") == "stream":
                        await self._stream(msg.get("job_id"), writer)
                        continue
                    # Quotas key on the self-declared client id, else
                    # the peer host.
                    if not msg.get("client"):
                        msg["client"] = peer
                    reply = await self.request(msg)
                except ServiceError as exc:
                    reply = error_reply(exc)
                if self.response_delay > 0:
                    await asyncio.sleep(self.response_delay)
                writer.write(encode_line(reply))
                await writer.drain()
        except (OSError, asyncio.IncompleteReadError):
            pass  # the client went away; its jobs keep running
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _stream(self, job_id: Any, writer: asyncio.StreamWriter) -> None:
        """``op: stream`` — :meth:`job_events` as JSON lines; the
        connection then returns to the request/reply loop.  A client
        write failure ends the relay (and the connection) only: closing
        the generator never reads as a backend fault."""
        events = self.job_events(job_id)
        try:
            async for doc in events:
                writer.write(encode_line(doc))
                await writer.drain()
        finally:
            await events.aclose()


def store_stats(store: Any) -> Dict[str, Any]:
    """A durable store's ``op:stats`` entry.  Cheap fields only: stats
    is the health-probe op, polled every probe interval on the event
    loop, where a full log scan would stall every in-flight stream."""
    return {
        "path": str(store.path),
        "n_appended": store.n_appended,
        "n_compactions": store.n_compactions,
    }


# -- embedding helpers ---------------------------------------------------------

class LoopHandle:
    """A server object running on a private event loop in a daemon
    thread.  The object must expose an ``address`` property and an
    ``async stop()``; subclasses add a named attribute for it (the
    service's ``ServiceHandle``, the router's ``RouterHandle``, the
    gateway's ``GatewayHandle``).
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


def run_background_loop(factory, thread_name: str, error_cls, what: str):
    """Construct ``obj = factory()``, await ``obj.start()`` on a fresh
    event loop in a daemon thread, and return ``(obj, loop, thread)``
    once start completes (socket bound, replay registered).  The one
    background runner behind ``serve_background``,
    ``router_background`` and ``gateway_background``."""
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


def run_forever(factory, banner: Callable[[Any], str], stopped: str) -> None:
    """Run ``factory()`` (anything with ``start``/``stop``) in the
    foreground until interrupted — the CLI path.  ``banner(obj)`` is
    printed, flushed, once it listens: harnesses read the port off its
    ``listening on HOST:PORT``."""

    async def main() -> None:
        obj = factory()
        await obj.start()
        print(banner(obj), flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await obj.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print(stopped)
