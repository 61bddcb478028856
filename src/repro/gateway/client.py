"""Blocking HTTP client for the gateway — stdlib ``http.client`` only.

The gateway's REST/SSE counterpart to
:class:`~repro.service.client.ServiceClient`: the CLI operator verbs
(``repro cluster status|join|leave|drain``), the gateway smoke script,
and the tests all talk through this.  Rejections surface as the same
exception types the TCP client raises — a 429 is a
:class:`QuotaExceededError`/:class:`QueueFullError` with the server's
``Retry-After``, a 404 on a job id is :class:`JobNotFoundError` — so
calling code does not care which wire it used.

Connections: request/response calls share one kept-alive connection per
client (the gateway speaks HTTP/1.1 keep-alive), guarded by a lock so a
client may be shared between threads; every SSE stream opens its own,
since it holds the wire until the job ends.  The kept connection is
re-opened when the gateway hung up while it sat idle, when a reply is
lost on it mid-call (retried once, idempotent methods only — a lost
``POST /v1/jobs`` may have been admitted), and in a forked child.

A cache hit needs no stream: its submit reply is born done and carries
the job's whole history (``terminal``) and trace id.  The client keeps
its most recent such reply — one slot, replaced by the next submit —
and :meth:`GatewayClient.stream` of that job rebuilds the ack frame
and yields the event without opening a connection, so a warm
:meth:`~GatewayClient.detect` is one request.  :meth:`stream_raw`
always goes over the wire.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import threading
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    GatewayError,
    JobNotFoundError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
)
from repro.service.policy import RetryPolicy

__all__ = ["GatewayClient", "parse_sse_stream"]


def _parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, _, port = str(address).rpartition(":")
    if not host or not port.isdigit():
        raise GatewayError(f"gateway addresses are HOST:PORT, got {address!r}")
    return host, int(port)


def parse_sse_stream(fp) -> Iterator[Tuple[Optional[str], str]]:
    """Yield ``(event_name, data)`` frames off a binary file-like SSE
    body.  *data* is the raw payload string — byte-comparable (after
    encoding) to the TCP protocol's JSON lines."""
    event: Optional[str] = None
    data_lines: list = []
    while True:
        raw = fp.readline()
        if not raw:
            break  # server closed the stream
        line = raw.decode("utf-8").rstrip("\n").rstrip("\r")
        if not line:  # blank line: frame boundary
            if data_lines:
                yield event, "\n".join(data_lines)
            event, data_lines = None, []
            continue
        if line.startswith(":"):
            continue  # comment/keep-alive
        name, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if name == "event":
            event = value
        elif name == "data":
            data_lines.append(value)
    if data_lines:  # stream ended mid-frame: surface what arrived
        yield event, "\n".join(data_lines)


class GatewayClient:
    """One gateway, many requests over one kept-alive connection (see
    the module docstring); thread- and fork-safe."""

    def __init__(self, address: Union[str, Tuple[str, int]],
                 client_id: Optional[str] = None, timeout: float = 60.0,
                 deadline: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.host, self.port = _parse_address(address)
        self.client_id = client_id
        self.timeout = timeout
        #: Default overall deadline (seconds) for retrying submits.
        self.deadline = deadline
        #: Backoff shape for retried submits; ``Retry-After`` hints
        #: from 429s replace the computed delay verbatim.
        self.retry_policy = retry_policy or RetryPolicy()
        self._lock = threading.Lock()
        self._conn: Optional[http.client.HTTPConnection] = None
        self._pid = os.getpid()
        #: The most recent submit reply, when it was born done.
        self._born_done: Optional[Dict[str, Any]] = None

    # -- plumbing --------------------------------------------------------------
    def _connect(self, timeout: Optional[float] = None) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout if timeout is None else timeout
        )

    def close(self) -> None:
        """Close the kept connection (the next call opens a new one)."""
        with self._lock:
            self._drop()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _drop(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    @staticmethod
    def _hung_up(conn: http.client.HTTPConnection) -> bool:
        """An idle keep-alive socket has nothing to say: readable means
        the gateway closed it (EOF) while it sat in this client."""
        if conn.sock is None:
            return False  # http.client reconnects on its own
        with selectors.DefaultSelector() as selector:
            selector.register(conn.sock, selectors.EVENT_READ)
            return bool(selector.select(0))

    def _roundtrip(self, method: str, path: str, payload: Optional[bytes],
                   headers: Dict[str, str]) -> Tuple[Any, bytes]:
        """``(response, body)`` of one request on the kept connection."""
        if self._pid != os.getpid():
            # Forked: the parent owns the socket's conversation (and
            # maybe, forever, the lock) — start over with our own.
            self._lock = threading.Lock()
            self._conn, self._pid = None, os.getpid()
        with self._lock:
            if self._conn is not None and self._hung_up(self._conn):
                self._drop()
            reused = self._conn is not None and self._conn.sock is not None
            while True:
                if self._conn is None:
                    self._conn = self._connect()
                try:
                    self._conn.request(method, path, body=payload, headers=headers)
                    response = self._conn.getresponse()
                    return response, response.read()
                except (OSError, http.client.HTTPException) as exc:
                    self._drop()
                    if reused and method != "POST":
                        reused = False
                        continue
                    raise GatewayError(
                        f"gateway {self.host}:{self.port} unreachable: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc

    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.client_id:
            headers["X-Repro-Client"] = self.client_id
        return headers

    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None,
                extra_headers: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
        """One request/response cycle; raises the mapped exception for
        error statuses (see module docstring)."""
        payload = None
        headers = self._headers()
        if extra_headers:
            headers.update(extra_headers)
        if body is not None:
            payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        response, raw = self._roundtrip(method, path, payload, headers)
        return self._decode(response, raw)

    @staticmethod
    def _decode(response, raw: bytes) -> Dict[str, Any]:
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError as exc:
            raise GatewayError(
                f"gateway sent undecodable JSON (HTTP {response.status}): {exc}"
            ) from None
        if response.status == 429:
            retry_after = doc.get("retry_after")
            if retry_after is None:
                retry_after = float(response.headers.get("Retry-After", 1.0))
            cls = (QuotaExceededError if doc.get("error") == "quota-exceeded"
                   else QueueFullError)
            raise cls(doc.get("message", "rejected"), retry_after)
        if response.status == 404 and doc.get("error") == "unknown-job":
            raise JobNotFoundError(doc.get("message", "unknown job"))
        if doc.get("error") == "deadline-exceeded":
            raise DeadlineExceededError(doc.get("message", "deadline exceeded"))
        if response.status == 503:
            raise ClusterError(doc.get("message", "gateway unavailable"))
        if response.status >= 400:
            raise ServiceError(
                doc.get("message", f"gateway rejected the request "
                                   f"(HTTP {response.status})")
            )
        return doc

    # -- data plane ------------------------------------------------------------
    def submit(self, spec: Dict[str, Any], priority: int = 0,
               client: Optional[str] = None,
               max_attempts: Optional[int] = 1,
               deadline: Optional[float] = None,
               trace: Optional[str] = None) -> Dict[str, Any]:
        """Submit a job spec; 202's body is the ack.

        With ``max_attempts > 1`` (or ``None`` for the policy default),
        429 backpressure is retried on the client's
        :class:`~repro.service.policy.RetryPolicy`, honoring the
        server's ``Retry-After`` verbatim.  *deadline* (seconds,
        default: the client's) bounds the whole retry loop — it is also
        sent as ``X-Repro-Deadline`` so the cluster sheds the job if
        the budget expires server-side.  *trace* rides as
        ``X-Repro-Trace`` for cross-process span parenting.
        """
        body: Dict[str, Any] = {"job": spec, "priority": priority}
        if client or self.client_id:
            body["client"] = client or self.client_id
        if deadline is None:
            deadline = self.deadline
        policy = self.retry_policy
        if max_attempts is not None:
            policy = policy.with_(max_attempts=max_attempts)
        retry = policy.start(deadline=deadline, op="gateway.submit")
        while True:
            retry.check_deadline()
            headers: Dict[str, str] = {}
            if retry.deadline_at is not None:
                remaining = retry.remaining()
                headers["X-Repro-Deadline"] = f"{max(0.0, remaining):.3f}"
            if trace:
                headers["X-Repro-Trace"] = trace
            try:
                reply = self.request("POST", "/v1/jobs", body,
                                     extra_headers=headers)
            except QueueFullError as exc:  # QuotaExceededError included
                retry.sleep(retry_after=exc.retry_after, error=exc)
                continue
            self._born_done = reply if "terminal" in reply else None
            return reply

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request("DELETE", f"/v1/jobs/{job_id}")

    def stats(self) -> Dict[str, Any]:
        return self.request("GET", "/v1/stats")

    def metrics(self, spans: bool = False) -> Dict[str, Any]:
        """The JSON metric-families document from ``GET /metrics``."""
        suffix = "&spans=true" if spans else ""
        return self.request("GET", f"/metrics?format=json{suffix}")

    def trace(self, job_id: Optional[str] = None,
              trace_id: Optional[str] = None) -> Dict[str, Any]:
        """One assembled trace tree: ``GET /v1/jobs/{id}/trace`` (by
        job id) or ``GET /v1/traces/{trace_id}`` (by raw trace key)."""
        if job_id is not None:
            return self.request("GET", f"/v1/jobs/{job_id}/trace")
        if trace_id is not None:
            return self.request("GET", f"/v1/traces/{trace_id}")
        raise GatewayError("trace needs a job_id or trace_id")

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition (``request`` decodes JSON,
        so the scrape surface needs its own fetch)."""
        response, raw = self._roundtrip("GET", "/metrics", None, self._headers())
        if response.status != 200:
            raise GatewayError(
                f"metrics scrape refused with HTTP {response.status}"
            )
        return raw.decode("utf-8")

    def stream_raw(self, job_id: str,
                   timeout: Optional[float] = None) -> Iterator[Tuple[Optional[str], str]]:
        """The job's SSE frames as ``(event_name, raw_data_str)`` — the
        raw payloads the bit-parity gate compares against TCP lines.
        The ack frame comes first; the iterator ends after the terminal
        event (the gateway closes the stream)."""
        conn = self._connect(timeout=timeout)
        try:
            headers = {**self._headers(), "Accept": "text/event-stream"}
            try:
                conn.request("GET", f"/v1/jobs/{job_id}/events", headers=headers)
                response = conn.getresponse()
            except (OSError, http.client.HTTPException) as exc:
                raise GatewayError(
                    f"gateway {self.host}:{self.port} unreachable: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            if response.status != 200:
                self._decode(response, response.read())  # raises mapped error
                raise GatewayError(
                    f"stream refused with HTTP {response.status}"
                )
            yield from parse_sse_stream(response)
        finally:
            conn.close()

    def stream(self, job_id: str,
               timeout: Optional[float] = None) -> Iterator[Dict[str, Any]]:
        """The job's stream documents, decoded — the SSE spelling of
        ``ServiceClient.stream``.  For the job this client's last
        submit got back born done, the same documents come from that
        reply: the ack frame the gateway would send, then the event."""
        reply = self._born_done
        if reply is not None and reply["job_id"] == job_id:
            ack = {"ok": True, "job_id": job_id, "state": reply["state"]}
            if "node" in reply:  # a router's ack names the owner
                ack["node"] = reply["node"]
            ack["trace"] = reply.get("trace")
            yield ack
            yield reply["terminal"]
            return
        for _event, data in self.stream_raw(job_id, timeout=timeout):
            yield json.loads(data)

    def detect(self, spec: Dict[str, Any], priority: int = 0) -> Dict[str, Any]:
        """Submit + stream to completion; returns the terminal document."""
        ack = self.submit(spec, priority=priority)
        last: Dict[str, Any] = ack
        for doc in self.stream(ack["job_id"]):
            last = doc
        if last.get("event") == "error":
            raise ServiceError(f"job failed: {last.get('error')}")
        return last

    # -- control plane ---------------------------------------------------------
    def cluster(self) -> Dict[str, Any]:
        return self.request("GET", "/admin/cluster")

    def join(self, address: str) -> Dict[str, Any]:
        return self.request("POST", "/admin/backends", {"address": address})

    def leave(self, node_id: str, drain: bool = False,
              wait: bool = False) -> Dict[str, Any]:
        query = []
        if drain:
            query.append("drain=true")
        if wait:
            query.append("wait=true")
        suffix = f"?{'&'.join(query)}" if query else ""
        return self.request("DELETE", f"/admin/backends/{node_id}{suffix}")

    def drain(self, wait: bool = False) -> Dict[str, Any]:
        suffix = "?wait=true" if wait else ""
        return self.request("POST", f"/admin/drain{suffix}")
