"""The HTTP/SSE gateway: REST job control plus a cluster control plane.

A :class:`Gateway` fronts either a single
:class:`~repro.service.server.DetectionService` or a
:class:`~repro.cluster.router.ShardRouter` with an HTTP/1.1 surface —
curl-able job submission where the TCP protocol needs a JSON-lines
client:

* ``POST /v1/jobs``                 submit a job spec (429 + Retry-After
  on quota/queue rejection — the HTTP spelling of the backpressure
  contract);
* ``GET /v1/jobs/{id}``             status;
* ``DELETE /v1/jobs/{id}``          cancel;
* ``GET /v1/jobs/{id}/events``      Server-Sent Events stream whose
  ``data:`` payloads are byte-identical to the TCP ``op: stream``
  lines for the same job (both consume the target's single
  ``job_events`` generator and differ only in framing);
* ``GET /v1/stats``                 the target's ``op: stats`` document;
* ``GET /metrics``                  Prometheus text exposition merging
  the gateway's, the target's, and the process-global engine metric
  registries (``?format=json`` for the JSON families document).

Control plane (router targets):

* ``GET /admin/cluster``            gateway + backend health/affinity;
* ``POST /admin/backends``          add a backend to the live pool;
* ``DELETE /admin/backends/{id}``   remove one — with ``?drain=true``
  the node first stops taking *new* placements, keeps serving its
  in-flight streams, and is removed only once they finish;
* ``POST /admin/drain``             gateway drain mode: stop admitting
  submissions (503), finish streaming, report drained.

Both target types are a :class:`~repro.service.jobserver.JobServer`,
and the gateway calls it directly: every job-control route is one
``target.request(msg)`` — the same op table the TCP connection loop
dispatches into — and the SSE endpoint relays ``target.job_events``.
Whatever differs between a service and a router is answered by the
target itself.

Threading: the gateway shares its target's event loop — service and
router state is loop-owned, so the gateway must live on that loop to
call into them without marshalling.  :func:`gateway_background`
constructs both on one fresh loop in a daemon thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import Any, Dict, Optional, Tuple

from repro.errors import (
    ClusterError,
    GatewayError,
    JobNotFoundError,
    QueueFullError,
    ServiceError,
)
from repro.gateway.http import (
    HttpError,
    HttpRequest,
    json_response,
    read_request,
    response_bytes,
    sse_event_bytes,
    sse_headers_bytes,
)
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    build_tree,
    critical_path,
    families_to_prometheus,
    get_collector,
    label_spans,
    merge_families,
    recent_spans,
    record_span,
    remote_parent,
    render_json,
    stage_self_times,
    trace,
)
from repro.service.jobserver import (
    JobServer,
    LoopHandle,
    run_background_loop,
    run_forever,
)
from repro.service.protocol import CLIENT_ID_MAX_LEN, TRACE_ID_MAX_LEN, error_reply

__all__ = [
    "Gateway",
    "GatewayHandle",
    "gateway_background",
    "serve_gateway_forever",
    "CLIENT_HEADER",
    "DEADLINE_HEADER",
    "TRACE_HEADER",
]

#: The client-identity header quotas are keyed on.  Anything presenting
#: it is "authenticated" as that client id; without it the peer host
#: stands in (exactly the TCP protocol's ``client`` field fallback).
CLIENT_HEADER = "x-repro-client"

#: Seconds the client is still willing to wait — forwarded as the wire
#: ``deadline`` so routers/backends shed work whose client gave up.
DEADLINE_HEADER = "x-repro-deadline"

#: Submitter's span id — forwarded as the wire ``trace`` so backend
#: spans parent under the HTTP caller's span in a cluster-wide scrape.
TRACE_HEADER = "x-repro-trace"

#: How long a drain-remove waits for a backend's streams to finish
#: before the background remover gives up and removes it anyway.
DRAIN_REMOVE_TIMEOUT = 300.0


class Gateway:
    """HTTP front for a detection service or shard router.

    Parameters
    ----------
    target:
        A :class:`~repro.service.jobserver.JobServer` — a
        :class:`DetectionService` or a :class:`ShardRouter`.  If it is
        not yet started, :meth:`start` starts it on the gateway's loop
        and :meth:`stop` stops it; an already-started target (sharing
        this loop) is left under its owner's control.
    host, port:
        HTTP bind address; port 0 picks a free port (see
        :attr:`address`).
    """

    def __init__(self, target: JobServer, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        if not isinstance(target, JobServer):
            raise GatewayError(
                f"gateway targets are DetectionService or ShardRouter "
                f"instances, got {type(target).__name__}"
            )
        self.target = target
        self.host = host
        self.port = port
        self.draining = False
        self.started_at = time.monotonic()
        self.n_requests = 0
        self.n_submitted = 0
        self.n_streams = 0  #: SSE streams ever opened
        self.n_quota_rejections = 0  #: 429s sent (quota or queue-full)
        self._active_streams = 0
        #: Gateway-owned metrics; ``GET /metrics`` merges this with the
        #: target's registry and the process-global engine registry.
        self.obs = MetricsRegistry()
        self.obs.gauge(
            "gateway_active_streams",
            help="SSE streams currently open on this gateway.",
        ).set_function(lambda: self._active_streams)
        self.obs.gauge(
            "gateway_draining",
            help="1 while the gateway refuses new submissions.",
        ).set_function(lambda: 1.0 if self.draining else 0.0)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._accepted = self.obs.counter(
            "gateway_connections_accepted_total",
            help="HTTP connections accepted since start (one per SSE "
                 "stream, one per keep-alive client).",
        )
        self.obs.gauge(
            "gateway_connections_open",
            help="HTTP connections currently open.",
        ).set_function(lambda: len(self._connections))
        self._started_target = False
        self._drained: Optional[asyncio.Event] = None
        self._drain_tasks: set = set()

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        self._drained = asyncio.Event()
        self.started_at = time.monotonic()
        try:
            self.target.address
        except ServiceError:
            await self.target.start()
            self._started_target = True
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise GatewayError("gateway is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        for task in list(self._drain_tasks):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._drain_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        await asyncio.sleep(0)
        if self._started_target:
            await self.target.stop()
            self._started_target = False

    # -- introspection ---------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "role": "gateway",
            "target_role": self.target.role,
            "uptime_seconds": time.monotonic() - self.started_at,
            "draining": self.draining,
            "n_requests": self.n_requests,
            "n_submitted": self.n_submitted,
            "n_streams": self.n_streams,
            "n_active_streams": self._active_streams,
            "n_quota_rejections": self.n_quota_rejections,
            "n_connections_accepted": int(self._accepted.value),
            "n_connections_open": len(self._connections),
        }

    # -- observability ---------------------------------------------------------
    def _count_response(self, status: int) -> None:
        self.obs.counter(
            "gateway_http_responses_total",
            help="HTTP responses written, by status code.",
            status=str(status),
        ).inc()

    async def _handle_metrics(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """``GET /metrics``: Prometheus text by default, the JSON
        families document with ``?format=json`` (add ``&spans=true``
        for the recent-span ring).  Covers all five layers: the
        gateway's registry merged with the target's ``op:metrics``
        document — its own and the process-global engine registry,
        plus, for a router, every backend's families scraped over the
        wire."""
        as_json = request.query.get("format") == "json"
        want_spans = as_json and \
            request.query.get("spans") in ("1", "true", "yes")
        target_doc = await self.target.request(
            {"op": "metrics", "spans": want_spans})
        families = merge_families(render_json(self.obs), target_doc["metrics"])
        self._count_response(200)
        if as_json:
            doc: Dict[str, Any] = {
                "ok": True,
                "role": "gateway",
                "target_role": self.target.role,
                "metrics": families,
            }
            if want_spans:
                # Cluster-wide: the target's spans carry node labels;
                # local ring entries it missed fall back to a
                # ``gateway`` label (single-process deployments share
                # one ring, so most local spans arrive labeled).
                spans = label_spans(target_doc.get("spans"), self.target.node_id)
                seen = {str(s.get("span_id")) for s in spans}
                doc["spans"] = spans + [
                    s for s in label_spans(recent_spans(64), "gateway")
                    if str(s.get("span_id")) not in seen
                ]
            writer.write(json_response(200, doc, close=not request.keep_alive))
        else:
            text = families_to_prometheus(families)
            writer.write(response_bytes(
                200,
                text.encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
                close=not request.keep_alive,
            ))
        await writer.drain()
        return not request.keep_alive

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
                    request = await read_request(reader)
                except HttpError as exc:
                    # Malformed request: answer it, then close — the
                    # framing may be desynchronised beyond repair.
                    self._count_response(exc.status)
                    writer.write(json_response(
                        exc.status,
                        {"ok": False, "error": "bad-request", "message": str(exc)},
                        close=True,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break  # clean EOF between requests
                self.n_requests += 1
                if await self._respond(request, writer):
                    break  # SSE (or Connection: close) ends the socket
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _respond(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one request; returns True when the connection is done
        (stream endpoints own the socket until the stream ends)."""
        try:
            if self._is_events_path(request):
                await self._handle_events(request, writer)
                return True
            if request.method == "GET" and \
                    (request.path.rstrip("/") or "/") == "/metrics":
                return await self._handle_metrics(request, writer)
            payload = await self._dispatch(request)
        except ServiceError as exc:
            status, doc = self._error_doc(exc)
            extra = None
            if status == 429:
                self.n_quota_rejections += 1
                self.obs.counter(
                    "gateway_quota_rejections_total",
                    help="429s written (quota or queue-full backpressure).",
                ).inc()
                retry_after = doc.get("retry_after", 1.0)
                extra = {"Retry-After": f"{max(0.0, float(retry_after)):.3f}"}
            self._count_response(status)
            writer.write(json_response(
                status, doc, extra_headers=extra, close=not request.keep_alive
            ))
            await writer.drain()
            return not request.keep_alive
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the loop
            self._count_response(500)
            writer.write(json_response(
                500,
                {"ok": False, "error": "internal",
                 "message": f"{type(exc).__name__}: {exc}"},
                close=True,
            ))
            await writer.drain()
            return True
        status, doc = payload
        self._count_response(status)
        writer.write(json_response(status, doc, close=not request.keep_alive))
        await writer.drain()
        return not request.keep_alive

    @staticmethod
    def _error_doc(exc: ServiceError) -> Tuple[int, Dict[str, Any]]:
        """Exception → (HTTP status, ``ok: false`` body).  The body is
        :func:`error_reply`'s wire document — HTTP clients read the same
        error shapes TCP clients do."""
        if isinstance(exc, HttpError):
            status = exc.status
        elif isinstance(exc, QueueFullError):  # QuotaExceededError included
            status = 429
        elif isinstance(exc, JobNotFoundError):
            status = 404
        elif isinstance(exc, ClusterError):
            status = 503
        else:
            status = 400
        return status, error_reply(exc)

    # -- routing ---------------------------------------------------------------
    @staticmethod
    def _is_events_path(request: HttpRequest) -> bool:
        parts = [p for p in request.path.split("/") if p]
        return (
            request.method == "GET"
            and len(parts) == 4
            and parts[:2] == ["v1", "jobs"]
            and parts[3] == "events"
        )

    def _client_id(self, request: HttpRequest, peer: Optional[str]) -> Optional[str]:
        return request.headers.get(CLIENT_HEADER) or peer

    async def _dispatch(self, request: HttpRequest) -> Tuple[int, Dict[str, Any]]:
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if parts[:2] == ["v1", "jobs"]:
            if len(parts) == 2 and method == "POST":
                return await self._handle_submit(request)
            if len(parts) == 3 and method in ("GET", "DELETE"):
                op = "status" if method == "GET" else "cancel"
                return 200, await self.target.request(
                    {"op": op, "job_id": parts[2]})
            if len(parts) == 4 and parts[3] == "trace" and method == "GET":
                return 200, await self._handle_trace(job_id=parts[2])
        if parts[:2] == ["v1", "traces"] and len(parts) == 3 \
                and method == "GET":
            return 200, await self._handle_trace(trace_key=parts[2])
        if parts == ["v1", "stats"] and method == "GET":
            return 200, await self.target.request({"op": "stats"})
        if parts == ["admin", "cluster"] and method == "GET":
            return 200, self._cluster_doc()
        if parts == ["admin", "drain"] and method == "POST":
            return await self._handle_gateway_drain(request)
        if parts == ["admin", "backends"] and method == "POST":
            return await self._handle_backend_add(request)
        if parts[:2] == ["admin", "backends"] and len(parts) == 3 \
                and method == "DELETE":
            return await self._handle_backend_remove(request, parts[2])
        raise HttpError(404, f"no route for {method} {request.path}")

    # -- data plane ------------------------------------------------------------
    async def _handle_trace(
        self, job_id: Optional[str] = None, trace_key: Optional[str] = None
    ) -> Dict[str, Any]:
        """``GET /v1/jobs/{id}/trace`` / ``GET /v1/traces/{trace_id}``:
        one assembled trace tree for the whole request path.

        The target's ``op:trace`` supplies its view (a router fans out
        to the backends that touched the job); the gateway grafts in its
        own request spans — the router's submit span parents under the
        gateway span whose id rode the wire, so the local buckets
        holding any still-missing parent ids complete the tree — and
        returns the flat span list, the nested tree, the per-stage
        self-times, and the longest chain."""
        doc = await self.target.request(
            {"op": "trace", "job_id": job_id, "trace": trace_key})
        spans = {str(s.get("span_id")): s
                 for s in label_spans(doc.get("spans"), self.target.node_id)}
        # Parent ids no fetched span resolves: look them up in the
        # gateway-local collector (no-op when the target shares this
        # process's collector — those buckets were already served).
        missing = {str(s.get("parent_id")) for s in spans.values()
                   if s.get("parent_id")} - set(spans)
        collector = get_collector()
        for parent_id in missing:
            for span in label_spans(
                    collector.spans_for_member(parent_id), "gateway"):
                spans.setdefault(str(span.get("span_id")), span)
        flat = list(spans.values())
        tree = build_tree(flat)
        return {
            "ok": True,
            "role": "gateway",
            "target_role": self.target.role,
            "trace": doc.get("trace"),
            "job_id": doc.get("job_id") or job_id,
            "nodes": doc.get("nodes") or [],
            "spans": flat,
            "tree": tree,
            "stages": stage_self_times(tree),
            "critical_path": [
                {"name": s.get("name"),
                 "span_id": s.get("span_id"),
                 "node": (s.get("labels") or {}).get("node"),
                 "duration_seconds": s.get("duration_seconds")}
                for s in critical_path(tree)
            ],
        }

    async def _handle_submit(self, request: HttpRequest) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/jobs``: validate, open the request span, forward.

        Trace-id precedence: the ``X-Repro-Trace`` *header* wins over a
        body ``trace`` field — headers are where proxies and load
        balancers inject correlation ids, and the body may be a stored
        template that still carries a stale id.  Whichever id is taken
        must be a string of at most :data:`TRACE_ID_MAX_LEN` chars;
        anything else is a 400, never a silent forward.  The id then
        parents this handler's ``gateway.request`` span, whose own id
        rides the wire — every downstream span hangs off the gateway
        span, and the caller's id stays the root of the whole tree.
        A body ``client`` and the ``X-Repro-Client`` header are held to
        the wire's rule (a string of at most :data:`CLIENT_ID_MAX_LEN`
        chars) and answered 400 otherwise."""
        if self.draining:
            raise ClusterError("gateway is draining; not admitting new jobs")
        body = request.json()
        spec = body.get("job")
        if not isinstance(spec, dict):
            raise HttpError(400, "submit body needs a 'job' object")
        body_client = body.get("client")
        header_client = request.headers.get(CLIENT_HEADER)
        for where, client in (("client", body_client), (CLIENT_HEADER, header_client)):
            if client is None:
                continue
            if not isinstance(client, str):
                raise HttpError(
                    400, f"{where} must be a string, got {type(client).__name__}")
            if len(client) > CLIENT_ID_MAX_LEN:
                raise HttpError(
                    400, f"{where} exceeds {CLIENT_ID_MAX_LEN} chars ({len(client)})")
        msg = {
            "op": "submit",
            "job": spec,
            "priority": body.get("priority", 0),
            "client": body_client or header_client,
        }
        deadline = request.headers.get(DEADLINE_HEADER, body.get("deadline"))
        if deadline is not None:
            try:
                msg["deadline"] = max(0.0, float(deadline))
            except (TypeError, ValueError):
                raise HttpError(
                    400, f"{DEADLINE_HEADER} must be a number of seconds, "
                         f"got {deadline!r}"
                ) from None
        wire_trace = request.headers.get(TRACE_HEADER)
        if wire_trace is None:
            wire_trace = body.get("trace")
        if wire_trace is not None:
            if not isinstance(wire_trace, str):
                raise HttpError(
                    400, f"trace id must be a string, "
                         f"got {type(wire_trace).__name__}")
            if len(wire_trace) > TRACE_ID_MAX_LEN:
                raise HttpError(
                    400, f"trace id exceeds {TRACE_ID_MAX_LEN} chars "
                         f"({len(wire_trace)})")
        with remote_parent(wire_trace or None):
            with trace("gateway.request", registry=self.obs,
                       node="gateway", method="POST",
                       route="/v1/jobs") as span:
                msg["trace"] = span.span_id
                reply = await self.target.request(msg)
        if reply.get("ok"):
            self.n_submitted += 1
            return 202, reply
        # ok:false replies that did not raise (router propagating a
        # backend rejection verbatim) still map onto HTTP statuses.
        if reply.get("error") in ("queue-full", "quota-exceeded"):
            raise QueueFullError(
                reply.get("message", "rejected"),
                reply.get("retry_after", 1.0),
            )
        return 400, reply

    async def _handle_events(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        """SSE: ack + events of one job, ``data:`` payloads byte-equal
        to the TCP stream lines.  The response head is only written
        after the first document arrives, so unknown jobs still get a
        clean 404 instead of a dead event stream."""
        job_id = [p for p in request.path.split("/") if p][2]
        events = self.target.job_events(job_id)
        try:
            try:
                first = await events.__anext__()
            except StopAsyncIteration:
                self._count_response(500)
                writer.write(json_response(
                    500, {"ok": False, "error": "internal",
                          "message": "event stream produced no documents"},
                    close=True,
                ))
                await writer.drain()
                return
            except ServiceError as exc:
                status, doc = self._error_doc(exc)
                self._count_response(status)
                writer.write(json_response(status, doc, close=True))
                await writer.drain()
                return
            if not first.get("ok"):
                status = 503 if first.get("error") == "no-backends" else 400
                self._count_response(status)
                writer.write(json_response(status, first, close=True))
                await writer.drain()
                return
            self.n_streams += 1
            self._active_streams += 1
            self._count_response(200)
            stream_started = time.perf_counter()
            try:
                writer.write(sse_headers_bytes())
                writer.write(sse_event_bytes(first))
                await writer.drain()
                async for doc in events:
                    writer.write(sse_event_bytes(doc, event=doc.get("event")))
                    await writer.drain()
            except (OSError, ConnectionError, ConnectionResetError):
                return  # client went away: end the proxy, job keeps running
            finally:
                self._active_streams -= 1
                elapsed = time.perf_counter() - stream_started
                self.obs.histogram(
                    "gateway_sse_stream_seconds",
                    help="Lifetime of SSE streams, open to close.",
                ).observe(elapsed)
                # The SSE relay as a real parented span: the ack tells
                # us the job's trace key, so the flush time lands in
                # the assembled tree next to the backend's compute.
                ack_trace = first.get("trace")
                with remote_parent(
                        ack_trace if isinstance(ack_trace, str) else None):
                    record_span("gateway.sse_stream", elapsed,
                                registry=self.obs,
                                histogram_labels={"node": "gateway"},
                                node="gateway", job=job_id)
                if self.draining and self._active_streams == 0:
                    self._drained.set()
        finally:
            await events.aclose()

    # -- control plane ---------------------------------------------------------
    def _cluster_doc(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "gateway": self.stats(),
            "target": self.target.stats(),
        }

    async def _handle_gateway_drain(
        self, request: HttpRequest
    ) -> Tuple[int, Dict[str, Any]]:
        self.draining = True
        if self._active_streams == 0:
            self._drained.set()
        if request.query.get("wait") in ("1", "true", "yes"):
            timeout = float(request.query.get("timeout", 60.0))
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._drained.wait(), timeout=timeout)
        return 200, {
            "ok": True,
            "draining": True,
            "drained": self._drained.is_set(),
            "active_streams": self._active_streams,
        }

    def _pool_or_400(self):
        pool = self.target.pool
        if pool is None:
            raise HttpError(
                400, "backend membership needs a router target; this gateway "
                     "fronts a single service"
            )
        return pool

    async def _handle_backend_add(
        self, request: HttpRequest
    ) -> Tuple[int, Dict[str, Any]]:
        pool = self._pool_or_400()
        address = request.json().get("address")
        if not address:
            raise HttpError(400, "add-backend body needs an 'address'")
        try:
            node = pool.add(address)
        except ClusterError as exc:
            raise HttpError(409, str(exc)) from None
        # Probe before answering: a reachable node joins already-healthy
        # (placeable), an unreachable one joins marked down.
        await pool.probe(node)
        return 200, {"ok": True, "node": node.snapshot(),
                     "n_backends": len(pool.nodes)}

    async def _handle_backend_remove(
        self, request: HttpRequest, node_id: str
    ) -> Tuple[int, Dict[str, Any]]:
        pool = self._pool_or_400()
        drain = request.query.get("drain") in ("1", "true", "yes")
        try:
            node = pool.node(node_id)
        except ClusterError as exc:
            raise HttpError(404, str(exc)) from None
        if not drain or node.n_active_streams == 0:
            pool.remove(node_id)
            return 200, {"ok": True, "removed": node_id, "drained": not drain,
                         "n_backends": len(pool.nodes)}
        # Drain: excluded from new placement immediately; removed by a
        # background waiter once its live streams finish — the operator
        # polls /admin/cluster to watch it leave.
        pool.drain(node_id)
        task = asyncio.create_task(
            self._remove_when_drained(node_id),
            name=f"repro-gateway-drain-{node_id}",
        )
        self._drain_tasks.add(task)
        task.add_done_callback(self._drain_tasks.discard)
        if request.query.get("wait") in ("1", "true", "yes"):
            timeout = float(request.query.get("timeout", DRAIN_REMOVE_TIMEOUT))
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(asyncio.shield(task), timeout=timeout)
        removed = node_id not in pool.nodes
        return (200 if removed else 202), {
            "ok": True, "removed" if removed else "draining": node_id,
            "active_streams": node.n_active_streams,
            "n_backends": len(pool.nodes),
        }

    async def _remove_when_drained(self, node_id: str) -> None:
        pool = self.target.pool
        deadline = time.monotonic() + DRAIN_REMOVE_TIMEOUT
        while time.monotonic() < deadline:
            node = pool.nodes.get(node_id)
            if node is None:
                return  # someone else removed it
            if node.n_active_streams == 0:
                break
            await asyncio.sleep(0.05)
        with contextlib.suppress(ClusterError):
            pool.remove(node_id)


# -- embedding helpers ---------------------------------------------------------

class GatewayHandle(LoopHandle):
    """A gateway (plus the target it owns) on a private event loop in a
    daemon thread — the gateway-flavoured :class:`LoopHandle`."""

    def __init__(self, gateway: Gateway,
                 loop: asyncio.AbstractEventLoop, thread: threading.Thread) -> None:
        super().__init__(gateway, loop, thread)
        self.gateway = gateway


def gateway_background(target_factory, host: str = "127.0.0.1",
                       port: int = 0) -> GatewayHandle:
    """Start ``Gateway(target_factory())`` on a fresh loop in a daemon
    thread.  *target_factory* is called *on that loop's thread* — the
    service/router must be born where its state will live."""
    gateway, loop, thread = run_background_loop(
        lambda: Gateway(target_factory(), host=host, port=port),
        "repro-gateway", GatewayError, "gateway",
    )
    return GatewayHandle(gateway, loop, thread)


def _banner(gateway: Gateway) -> str:
    host, port = gateway.address
    return f"repro gateway listening on {host}:{port} (fronting a {gateway.target.role})"


def serve_gateway_forever(target_factory, host: str = "127.0.0.1",
                          port: int = 0) -> None:
    """Run a gateway in the foreground until interrupted (the CLI path)."""
    run_forever(lambda: Gateway(target_factory(), host=host, port=port),
                _banner, "gateway stopped")
