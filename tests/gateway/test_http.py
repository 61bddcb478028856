"""The hand-rolled HTTP/1.1 wire layer: request parsing (content-length
and chunked bodies), malformed-input statuses, response framing, and
SSE frames that stay byte-identical to the TCP protocol's JSON lines."""

import asyncio
import json

import pytest

from repro.gateway.client import parse_sse_stream
from repro.gateway.http import (
    MAX_BODY_BYTES,
    HttpError,
    json_response,
    read_request,
    response_bytes,
    sse_event_bytes,
    sse_headers_bytes,
)
from repro.service.protocol import encode_line

pytestmark = pytest.mark.fast


def parse(raw: bytes):
    """Feed *raw* through read_request on a scratch event loop."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestRequestParsing:
    def test_get_with_query(self):
        req = parse(b"GET /v1/jobs/abc?drain=true&x=1 HTTP/1.1\r\n"
                    b"Host: h\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/v1/jobs/abc"
        assert req.query == {"drain": "true", "x": "1"}
        assert req.headers["host"] == "h"
        assert req.body == b""
        assert req.keep_alive

    def test_content_length_body(self):
        body = json.dumps({"job": {"scene": 1}}).encode()
        req = parse(b"POST /v1/jobs HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body)
        assert req.body == body
        assert req.json() == {"job": {"scene": 1}}

    def test_chunked_body(self):
        raw = (b"POST /v1/jobs HTTP/1.1\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n"
               b"5\r\nhello\r\n"
               b"6;ext=1\r\n world\r\n"
               b"0\r\n\r\n")
        req = parse(raw)
        assert req.body == b"hello world"

    def test_chunked_body_with_trailers(self):
        raw = (b"POST /p HTTP/1.1\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n"
               b"3\r\nabc\r\n"
               b"0\r\n"
               b"X-Trailer: 1\r\n\r\n")
        assert parse(raw).body == b"abc"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_connection_close_header(self):
        req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive

    def test_duplicate_headers_comma_joined(self):
        req = parse(b"GET / HTTP/1.1\r\nX-A: 1\r\nX-A: 2\r\n\r\n")
        assert req.headers["x-a"] == "1, 2"


class TestMalformedRequests:
    def assert_status(self, raw: bytes, status: int):
        with pytest.raises(HttpError) as err:
            parse(raw)
        assert err.value.status == status

    def test_garbage_request_line(self):
        self.assert_status(b"NOT A VALID LINE\r\n\r\n", 400)

    def test_unknown_method(self):
        self.assert_status(b"BREW /pot HTTP/1.1\r\n\r\n", 400)

    def test_bad_version(self):
        self.assert_status(b"GET / HTTP/2.0\r\n\r\n", 505)

    def test_non_origin_form_target(self):
        self.assert_status(b"GET http://evil/ HTTP/1.1\r\n\r\n", 400)

    def test_header_folding_rejected(self):
        self.assert_status(b"GET / HTTP/1.1\r\nX-A: 1\r\n  folded\r\n\r\n", 400)

    def test_header_without_colon(self):
        self.assert_status(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n", 400)

    def test_malformed_content_length(self):
        self.assert_status(b"POST / HTTP/1.1\r\nContent-Length: pig\r\n\r\n", 400)

    def test_negative_content_length(self):
        self.assert_status(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400)

    def test_oversize_content_length(self):
        self.assert_status(
            b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % (MAX_BODY_BYTES + 1), 413)

    def test_truncated_body(self):
        self.assert_status(
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 400)

    def test_bad_chunk_size(self):
        self.assert_status(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"zz\r\n\r\n", 400)

    def test_unsupported_transfer_encoding(self):
        self.assert_status(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\nx", 501)

    def test_truncated_headers(self):
        self.assert_status(b"GET / HTTP/1.1\r\nX-A: 1", 400)

    def test_body_not_json(self):
        req = parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nnot")
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400

    def test_body_json_but_not_object(self):
        req = parse(b"POST / HTTP/1.1\r\nContent-Length: 7\r\n\r\n[1,2,3]")
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400


class TestResponseFraming:
    def test_response_bytes_content_length(self):
        raw = response_bytes(200, b"hello", content_type="text/plain")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert body == b"hello"
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Length: 5" in head
        assert b"Content-Type: text/plain" in head

    def test_json_response_compact(self):
        raw = json_response(202, {"ok": True, "n": 1})
        _, _, body = raw.partition(b"\r\n\r\n")
        assert body == b'{"ok":true,"n":1}'

    def test_extra_headers_and_close(self):
        raw = response_bytes(429, b"{}", extra_headers={"Retry-After": "1.5"},
                             close=True)
        assert b"Retry-After: 1.5" in raw
        assert b"Connection: close" in raw


class TestSseFraming:
    def test_sse_headers(self):
        head = sse_headers_bytes()
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: text/event-stream" in head

    def test_data_payload_matches_tcp_line(self):
        """The parity contract: the SSE data payload is byte-for-byte
        the TCP protocol's JSON line (minus its trailing newline)."""
        doc = {"event": "partition", "index": 2, "cached": None,
               "note": "caf\u00e9 \"quoted\"\n", "circles": [[1.0, 2.5e-9, 3]],
               "report": {"elapsed_seconds": 0.12345678901234567}}
        frame = sse_event_bytes(doc, event="partition")
        data = [ln for ln in frame.decode().split("\n") if ln.startswith("data: ")]
        assert len(data) == 1
        payload = data[0][len("data: "):]
        assert payload.encode() + b"\n" == encode_line(doc)
        # ... and both are what json.dumps with compact separators emits
        # (the shared encoder must not change a byte on the wire).
        assert payload == json.dumps(doc, separators=(",", ":"))
        assert json_response(200, doc).endswith(payload.encode())

    def test_round_trip_through_client_parser(self):
        docs = [{"ok": True, "job_id": "j1", "state": "queued"},
                {"event": "state", "state": "running"},
                {"event": "result", "result": {"circles": [[1.0, 2.0, 3.5]]}}]
        wire = sse_event_bytes(docs[0])
        for doc in docs[1:]:
            wire += sse_event_bytes(doc, event=doc["event"])

        import io

        frames = list(parse_sse_stream(io.BytesIO(wire)))
        assert [json.loads(data) for _ev, data in frames] == docs
        assert frames[1][0] == "state"
        assert frames[0][0] is None  # the ack frame carries no event name
