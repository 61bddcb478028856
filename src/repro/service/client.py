"""Blocking, stdlib-only client for the detection service *and* cluster.

One persistent socket per client; every method is a request/reply pair
except :meth:`ServiceClient.stream`, which consumes event lines until a
terminal event — or, for the job the client's last submit got back born
done from cache, yields the terminal event that reply carried without
asking again.  The CLI (``repro detect --server``) and the service
tests/benchmarks are the callers; nothing here imports numpy or the
engine, so a thin consumer can talk to a heavy server.  A cluster
router speaks the identical protocol, so the same client works against
one service or a whole shard cluster without knowing which.

Two resilience contracts, both bounded:

* **Backpressure** — a queue-full or quota rejection carries the
  server's ``retry_after`` hint.  :meth:`submit` honours it
  automatically: it sleeps and retries up to ``submit_attempts`` times
  before surfacing :class:`~repro.errors.QueueFullError` /
  :class:`~repro.errors.QuotaExceededError` to the caller (pass
  ``max_attempts=1`` for the raw single-shot behaviour);
  :meth:`submit_wait` is the long-patience variant with an explicit
  time budget.
* **Node-down transparency** — a refused, reset, or mid-request-closed
  connection raises :class:`~repro.errors.ServiceUnavailableError`
  internally; the client reconnects and retries up to
  ``reconnect_attempts`` times.  Retries are bounded *and honest about
  idempotence*: a submit whose reply was lost mid-read is NOT replayed
  (the server may have admitted it; a blind replay could duplicate the
  job on a cache-less server) — it surfaces
  :class:`ServiceUnavailableError`, and callers with content-addressed
  jobs may safely resubmit, knowing the server collapses the repeat.
  Mid-\\ :meth:`stream` drops re-attach to the same job id — against a
  restarted cluster router this replays the job's history and follows
  it to completion on whichever backend now owns it.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    DeadlineExceededError,
    JobNotFoundError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service.policy import RetryPolicy
from repro.service.protocol import TERMINAL_EVENTS

__all__ = ["ServiceClient", "StreamedDetection"]


@dataclass
class StreamedDetection:
    """Everything one streamed job produced, in arrival order."""

    job_id: str
    events: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None  #: result_to_json document
    cached: bool = False

    @property
    def fragments(self) -> List[Dict[str, Any]]:
        """The per-partition result events, as they streamed in."""
        return [e for e in self.events if e.get("event") == "partition"]

    @property
    def circles(self) -> List[Tuple[float, float, float]]:
        if self.result is None:
            raise ServiceError(f"job {self.job_id} has no result")
        return [tuple(c) for c in self.result["circles"]]


class ServiceClient:
    """A JSON-lines connection to one service or cluster router.

    Parameters
    ----------
    host, port:
        The server (or router) address.
    timeout:
        Per-request socket timeout; suspended while streaming.
    client_id:
        Optional self-declared identity sent with every submit — the
        key per-client quotas account against (servers fall back to the
        peer address when absent).
    submit_attempts:
        How many times :meth:`submit` tries against retry-after
        backpressure before surfacing the rejection.
    reconnect_attempts:
        How many reconnect-and-retry rounds a dropped connection gets
        before :class:`ServiceUnavailableError` reaches the caller.
        ``0`` disables transparent reconnection.
    deadline:
        Optional overall time budget (seconds) applied to every
        :meth:`submit`: propagated on the wire so the server can shed
        the job once it expires, and raised client-side as
        :class:`~repro.errors.DeadlineExceededError` instead of
        sleeping into a retry that cannot finish in time.
    retry_policy:
        Optional :class:`~repro.service.policy.RetryPolicy` override
        for the reconnect backoff.  The default is derived from the
        legacy ``reconnect_attempts``/``reconnect_backoff`` knobs
        (deterministic exponential ladder, no jitter) so existing
        callers keep their exact timing.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 120.0,
        client_id: Optional[str] = None,
        submit_attempts: int = 4,
        reconnect_attempts: int = 2,
        reconnect_backoff: float = 0.1,
        deadline: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if submit_attempts < 1:
            raise ServiceError(f"submit_attempts must be >= 1, got {submit_attempts}")
        if reconnect_attempts < 0:
            raise ServiceError(
                f"reconnect_attempts must be >= 0, got {reconnect_attempts}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.client_id = client_id
        self.submit_attempts = submit_attempts
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_backoff = reconnect_backoff
        self.deadline = deadline
        self.reconnect_policy = retry_policy or RetryPolicy(
            max_attempts=1 + reconnect_attempts,
            base_delay=reconnect_backoff,
            max_delay=max(reconnect_backoff, 5.0),
            jitter=False,
        )
        self._sock: Optional[socket.socket] = None
        self._file = None
        #: The most recent submit reply, when it was born done.
        self._born_done: Optional[Dict[str, Any]] = None

    # -- connection ------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as exc:
                raise ServiceUnavailableError(
                    f"cannot connect to {self.host}:{self.port}: {exc}"
                ) from exc
            self._file = self._sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire ------------------------------------------------------------------
    def _send(self, payload: Dict[str, Any]) -> None:
        self.connect()
        try:
            self._file.write(
                json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
            )
            self._file.flush()
        except OSError as exc:
            raise ServiceUnavailableError(
                f"connection to {self.host}:{self.port} lost while sending: {exc}"
            ) from exc

    def _read_line(self) -> Dict[str, Any]:
        try:
            line = self._file.readline()
        except OSError as exc:
            raise ServiceUnavailableError(
                f"connection to {self.host}:{self.port} lost while reading: {exc}"
            ) from exc
        if not line:
            raise ServiceUnavailableError("server closed the connection")
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise ServiceError(f"malformed server line: {exc}") from None
        return obj

    def _roundtrip(
        self, payload: Dict[str, Any], idempotent: bool = True
    ) -> Dict[str, Any]:
        """One send/receive with transparent bounded reconnection.

        Send-phase failures always reconnect and retry (the server never
        saw the request).  Reply-phase failures — the request may have
        been processed, only the answer was lost — retry only for
        *idempotent* ops: replaying a submit there could duplicate the
        job on a cache-less server, so non-idempotent ops surface
        :class:`ServiceUnavailableError` and let the caller decide
        (content-addressed jobs are safe to resubmit; the server
        collapses them).
        """
        retry = self.reconnect_policy.start(op="client.reconnect")
        while True:
            try:
                self._send(payload)
            except ServiceUnavailableError as exc:
                self.close()
                retry.sleep(error=exc)
                continue
            try:
                return self._read_line()
            except ServiceUnavailableError as exc:
                self.close()
                if not idempotent:
                    raise
                retry.sleep(error=exc)

    def _call(self, payload: Dict[str, Any],
              idempotent: bool = True) -> Dict[str, Any]:
        reply = self._roundtrip(payload, idempotent=idempotent)
        if reply.get("ok"):
            return reply
        error = reply.get("error")
        message = reply.get("message", error or "request failed")
        if error == "quota-exceeded":
            raise QuotaExceededError(
                message, retry_after=float(reply.get("retry_after", 1.0))
            )
        if error == "queue-full":
            raise QueueFullError(message, retry_after=float(reply.get("retry_after", 1.0)))
        if error == "unknown-job":
            raise JobNotFoundError(message)
        if error == "deadline-exceeded":
            raise DeadlineExceededError(message)
        raise ServiceError(message)

    # -- ops -------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self._call({"op": "ping"}).get("pong"))

    def _submit_payload(self, job: Dict[str, Any], priority: int) -> Dict[str, Any]:
        payload = {"op": "submit", "job": job, "priority": priority}
        if self.client_id is not None:
            payload["client"] = self.client_id
        return payload

    def submit(
        self, job: Dict[str, Any], priority: int = 0,
        max_attempts: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit a job spec; returns the accept reply (``job_id`` etc.).

        Honours retry-after backpressure automatically: a queue-full or
        quota rejection sleeps the server's hint and retries, up to
        *max_attempts* (default: the client's ``submit_attempts``)
        before the :class:`QueueFullError` /
        :class:`QuotaExceededError` reaches the caller.  Pass
        ``max_attempts=1`` to surface the first rejection immediately.

        *deadline* (default: the client's) bounds the whole operation:
        the remaining budget rides on the wire as the submit message's
        ``deadline`` field (servers shed the job once it expires), and
        a retry that cannot fit in the budget raises
        :class:`~repro.errors.DeadlineExceededError` instead of
        sleeping.
        """
        attempts = self.submit_attempts if max_attempts is None else max_attempts
        if deadline is None:
            deadline = self.deadline
        retry = RetryPolicy(max_attempts=attempts).start(
            deadline=deadline, op="client.submit"
        )
        while True:
            retry.check_deadline()
            payload = self._submit_payload(job, priority)
            if retry.deadline_at is not None:
                payload["deadline"] = max(0.0, retry.remaining())
            try:
                reply = self._call(payload, idempotent=False)
            except QueueFullError as exc:  # QuotaExceededError included
                retry.sleep(retry_after=exc.retry_after, error=exc)
                continue
            self._born_done = reply if "terminal" in reply else None
            return reply

    def submit_wait(
        self, job: Dict[str, Any], priority: int = 0,
        max_attempts: int = 20, max_wait: float = 60.0,
    ) -> Dict[str, Any]:
        """Submit with an explicit patience budget: sleep ``retry_after``
        between single-shot attempts until accepted, for up to
        *max_attempts* tries or *max_wait* seconds.  Exhausting the
        attempt budget re-raises the server's rejection; exhausting the
        *time* budget raises
        :class:`~repro.errors.DeadlineExceededError`."""
        retry = RetryPolicy(max_attempts=max_attempts).start(
            deadline=max_wait, op="client.submit_wait"
        )
        while True:
            try:
                return self.submit(job, priority=priority, max_attempts=1)
            except QueueFullError as exc:
                retry.sleep(retry_after=exc.retry_after, error=exc)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._call({"op": "status", "job_id": job_id})

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._call({"op": "cancel", "job_id": job_id})

    def stats(self) -> Dict[str, Any]:
        return self._call({"op": "stats"})

    def metrics(self, spans: bool = False) -> Dict[str, Any]:
        """The server's ``op:metrics`` exposition document (merged
        registries as JSON; *spans* adds the recent-span ring)."""
        payload: Dict[str, Any] = {"op": "metrics"}
        if spans:
            payload["spans"] = True
        return self._call(payload)

    def trace(self, job_id: Optional[str] = None,
              trace_id: Optional[str] = None) -> Dict[str, Any]:
        """The server's ``op:trace`` document for one job or trace id.

        Against a router this is the *assembled* cluster-wide trace —
        router spans plus every backend the job touched, node-labeled;
        against a plain service it is that process's buffered spans.
        """
        payload: Dict[str, Any] = {"op": "trace"}
        if job_id is not None:
            payload["job_id"] = job_id
        if trace_id is not None:
            payload["trace"] = trace_id
        return self._call(payload)

    def route(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Cluster-router introspection: where *would* this job land
        (``{"key": ..., "node": ...}``)?  Plain services reject the op."""
        return self._call({"op": "route", "job": job})

    def stream(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Yield the job's events — history first, then live — ending
        with the terminal event (``result``/``error``/``cancelled``).

        The socket timeout is suspended while waiting: a job sitting
        behind a deep queue may legitimately produce no event for longer
        than any request/reply timeout.

        A connection dropped mid-stream (node death, router restart) is
        re-attached transparently up to ``reconnect_attempts`` times by
        re-issuing the stream op for the same job id.  The server
        replays the job's event history on re-attach, so consumers may
        see duplicate planning/fragment events — the terminal event
        still arrives exactly once per successful stream.

        A job born done from cache has one event, and its submit reply
        carried it (``terminal``).  The client keeps its most recent
        such reply — one slot, replaced by the next :meth:`submit` —
        and a stream of that job yields the event from it with no
        request, so a warm :meth:`detect` is one round trip.
        """
        reply = self._born_done
        if reply is not None and reply["job_id"] == job_id:
            yield reply["terminal"]
            return
        retry = self.reconnect_policy.start(op="client.stream")
        while True:
            self._call({"op": "stream", "job_id": job_id})  # ack header
            previous = self._sock.gettimeout()
            self._sock.settimeout(None)
            try:
                while True:
                    event = self._read_line()
                    yield event
                    if event.get("event") in TERMINAL_EVENTS:
                        return
            except ServiceUnavailableError as exc:
                self.close()
                retry.sleep(error=exc)
            finally:
                if self._sock is not None:
                    try:
                        self._sock.settimeout(previous)
                    except OSError:  # pragma: no cover - connection gone
                        pass

    # -- conveniences ----------------------------------------------------------
    def detect(self, job: Dict[str, Any], priority: int = 0) -> StreamedDetection:
        """Submit (waiting out backpressure) and stream to completion."""
        reply = self.submit_wait(job, priority=priority)
        return self.collect(reply["job_id"])

    def collect(self, job_id: str) -> StreamedDetection:
        """Stream *job_id* to its terminal event and collate the output."""
        out = StreamedDetection(job_id=job_id)
        for event in self.stream(job_id):
            out.events.append(event)
            name = event.get("event")
            if name == "result":
                out.result = event["result"]
                out.cached = bool(event.get("cached"))
            elif name == "error":
                raise ServiceError(f"job {job_id} failed: {event.get('error')}")
            elif name == "cancelled":
                break
        return out
