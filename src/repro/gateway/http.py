"""Hand-rolled HTTP/1.1 request parsing and response/SSE framing.

The gateway speaks HTTP the same way the service speaks JSON-lines:
stdlib only, asyncio streams, no framework.  This module is the wire
layer — it knows methods, headers, bodies (``Content-Length`` and
``chunked``), and Server-Sent-Events framing, and nothing about jobs.

Parsing contract: anything malformed raises :class:`HttpError` with the
right status code (400 for bad syntax, 405 for bad methods, 413/431 for
oversize payloads, 501 for transfer encodings we don't implement) — the
server turns that into an error response instead of a dead connection.

SSE framing: one event per ``sse_event_bytes`` call, ``event:`` naming
the wire event and ``data:`` carrying the *exact* compact JSON document
the TCP ``op: stream`` protocol would have sent for the same job —
that byte-level equivalence is what ``scripts/gateway_smoke.py`` gates.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import GatewayError
from repro.service.protocol import compact_json

__all__ = [
    "HttpError",
    "HttpRequest",
    "read_request",
    "response_bytes",
    "json_response",
    "sse_headers_bytes",
    "sse_event_bytes",
    "REASONS",
]

#: Request-line + headers budget; bodies have their own limit.
MAX_HEADER_BYTES = 64 * 1024
#: Body budget — inline float64 pixel payloads are large (a 1024²
#: image is ~11 MB of base64), matching the TCP protocol's line limit.
MAX_BODY_BYTES = 32 * 1024 * 1024

REASONS: Dict[int, str] = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}

_KNOWN_METHODS = frozenset({
    "GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS",
})


class HttpError(GatewayError):
    """A request the gateway refuses, with the HTTP status to say so."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    target: str  #: the raw request target, query string included
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)  #: keys lower-cased
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Dict[str, Any]:
        """The body as a JSON object; :class:`HttpError` 400 otherwise."""
        if not self.body:
            return {}
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise HttpError(
                400, f"request body must be a JSON object, got {type(doc).__name__}"
            )
        return doc


async def _read_header_block(reader: asyncio.StreamReader) -> Optional[bytes]:
    """Everything up to the blank line, or None on immediate EOF."""
    try:
        block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF between requests: connection closed
        raise HttpError(400, "connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise HttpError(431, "request headers exceed the size limit") from None
    if len(block) > MAX_HEADER_BYTES:
        raise HttpError(431, "request headers exceed the size limit")
    return block


def _parse_request_line(line: str) -> Tuple[str, str]:
    parts = line.split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {line!r}")
    method, target, version = parts
    if method.upper() not in _KNOWN_METHODS:
        raise HttpError(400, f"unrecognised HTTP method {method!r}")
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(505, f"unsupported protocol version {version!r}")
    if not target.startswith("/"):
        raise HttpError(400, f"request target must be origin-form, got {target!r}")
    return method.upper(), target


def _parse_headers(lines: list) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for raw in lines:
        if not raw:
            continue
        if raw[0] in " \t":
            raise HttpError(400, "obsolete header line folding is not accepted")
        name, sep, value = raw.partition(":")
        if not sep or not name or any(c in name for c in " \t"):
            raise HttpError(400, f"malformed header line: {raw!r}")
        key = name.lower()
        value = value.strip()
        if key in headers:
            headers[key] = f"{headers[key]}, {value}"
        else:
            headers[key] = value
    return headers


async def _read_chunked_body(reader: asyncio.StreamReader,
                             max_bytes: int) -> bytes:
    chunks = []
    total = 0
    while True:
        try:
            size_line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, "connection closed mid-chunk") from None
        size_text = size_line.strip().split(b";", 1)[0]  # drop extensions
        try:
            size = int(size_text, 16)
        except ValueError:
            raise HttpError(400, f"malformed chunk size {size_text!r}") from None
        if size < 0:
            raise HttpError(400, f"negative chunk size {size}")
        total += size
        if total > max_bytes:
            raise HttpError(413, "chunked body exceeds the size limit")
        try:
            if size == 0:
                # Trailer section: header lines until the blank one (the
                # common no-trailers case sends the blank line directly).
                while True:
                    line = await reader.readuntil(b"\r\n")
                    if line == b"\r\n":
                        break
                break
            chunks.append(await reader.readexactly(size))
            if await reader.readexactly(2) != b"\r\n":
                raise HttpError(400, "chunk data not terminated by CRLF")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, "connection closed mid-chunk") from None
    return b"".join(chunks)


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request off *reader*.

    Returns ``None`` on a clean EOF before any bytes (keep-alive peer
    went away); raises :class:`HttpError` for anything malformed.
    """
    block = await _read_header_block(reader)
    if block is None:
        return None
    try:
        text = block.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
        raise HttpError(400, "undecodable request head") from None
    lines = text.split("\r\n")
    method, target = _parse_request_line(lines[0])
    headers = _parse_headers(lines[1:])

    split = urlsplit(target)
    path = unquote(split.path)
    query = {k: v for k, v in parse_qsl(split.query, keep_blank_values=True)}

    encoding = headers.get("transfer-encoding", "").lower()
    body = b""
    if encoding:
        if encoding != "chunked":
            raise HttpError(501, f"unsupported transfer encoding {encoding!r}")
        body = await _read_chunked_body(reader, MAX_BODY_BYTES)
    elif "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(
                400, f"malformed Content-Length {headers['content-length']!r}"
            ) from None
        if length < 0:
            raise HttpError(400, f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, "request body exceeds the size limit")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed mid-body") from None
    return HttpRequest(
        method=method, target=target, path=path, query=query,
        headers=headers, body=body,
    )


# -- responses -----------------------------------------------------------------

def response_bytes(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    close: bool = False,
) -> bytes:
    """A complete response with Content-Length framing."""
    reason = REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}"]
    if body:
        head.append(f"Content-Type: {content_type}")
    head.append(f"Content-Length: {len(body)}")
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    head.append("Connection: close" if close else "Connection: keep-alive")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def json_response(
    status: int,
    doc: Dict[str, Any],
    extra_headers: Optional[Dict[str, str]] = None,
    close: bool = False,
) -> bytes:
    """*doc* as a compact-JSON response (the TCP protocol's encoding)."""
    body = compact_json(doc).encode("utf-8")
    return response_bytes(
        status, body, extra_headers=extra_headers, close=close
    )


# -- Server-Sent Events --------------------------------------------------------

def sse_headers_bytes() -> bytes:
    """The response head opening an event stream (no Content-Length —
    the stream ends when the connection closes)."""
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-cache\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )


def sse_event_bytes(doc: Dict[str, Any], event: Optional[str] = None) -> bytes:
    """One SSE frame carrying *doc* as its data payload.

    The data line is the compact-JSON encoding the TCP protocol uses
    (single line — JSON strings cannot contain raw newlines), so an SSE
    consumer sees byte-identical payloads to an ``op: stream`` consumer.
    """
    data = compact_json(doc)
    frame = []
    if event:
        frame.append(f"event: {event}")
    frame.append(f"data: {data}")
    return ("\n".join(frame) + "\n\n").encode("utf-8")
