"""JSON-lines wire protocol shared by the service server and client.

Every message is one JSON object per ``\\n``-terminated line, UTF-8.

Client → server ops::

    {"op": "submit", "job": {...job spec...}, "priority": 0, "client": "id"}
    {"op": "status", "job_id": "job-..."}
    {"op": "cancel", "job_id": "job-..."}
    {"op": "stream", "job_id": "job-..."}   # server streams event lines
    {"op": "stats"}
    {"op": "metrics", "spans": false}   # obs exposition (JSON families)
    {"op": "trace", "job_id": "job-..."}   # or {"op": "trace", "trace": "<id>"}
    {"op": "ping"}

``client`` is optional — a self-declared id for per-client quota
accounting (servers fall back to the peer address).  A submit may also
carry ``deadline`` (seconds the client will wait) and ``trace`` (the
submitter's span id); :func:`submit_fields` is the one check of
``priority``/``deadline``/``trace`` both servers apply.  A cluster router
(:mod:`repro.cluster.router`) speaks this same protocol and adds one
debug op, ``{"op": "route", "job": {...}}``, answering where a spec
*would* be placed.

``trace`` returns the buffered spans for one trace — addressed by a
``job_id`` the target knows, or by raw ``trace`` key.  Against a plain
service it answers that node's local buffer; against a router it fans
out to the backends that touched the job and returns the merged,
``node``-labeled, clock-skew-adjusted span list (see
:meth:`repro.cluster.router.ShardRouter.op_trace`).

Both servers answer these ops from one connection loop and op table,
:class:`repro.service.jobserver.JobServer`; ``op`` ``x`` is the
server's ``op_x`` coroutine.

A *job spec* names the image one of three ways plus the engine knobs:

``scene``
    ``{"size": 64, "circles": 4, "seed": 0, "threshold": 0.4}`` — a
    synthetic workload generated server-side, mirroring
    ``repro detect`` exactly (so a client can reproduce the request
    locally and check bit-parity).
``image_path``
    A ``*.pgm`` path readable by the *server*.
``pixels``
    ``{"shape": [h, w], "data": "<base64 float64 C-order>"}`` — raw
    pixels inline, for clients whose images exist nowhere the server
    can read.

plus ``strategy``, ``iterations``, ``seed``, ``record_every``,
``options``, ``executor`` (string choices only), ``n_workers``,
``threshold``/``radius_mean`` (model derivation for path/pixel images).

Server → client: every reply carries ``ok``; streamed event lines carry
``event`` (``planned`` / ``partition`` / ``state`` / ``result`` /
``error`` / ``cancelled``).  The terminal events are ``result``,
``error`` and ``cancelled``.  Detection results reuse the cache's JSON
schema (:func:`repro.engine.cache.result_to_json`) so a streamed result
and a cached one are byte-comparable.
"""

from __future__ import annotations

import base64
import hashlib
import json
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.engine.cache import report_to_json, result_to_json
from repro.engine.schema import (
    DetectionEvent,
    DetectionRequest,
    PartitionResultEvent,
    ResultEvent,
    TilePlannedEvent,
    request_for_image,
)
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    JobNotFoundError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
)
from repro.imaging.image import Image
from repro.obs import MetricsRegistry

__all__ = [
    "MAX_LINE_BYTES",
    "SPEC_MEMO_CAPACITY",
    "TERMINAL_EVENTS",
    "TRACE_ID_MAX_LEN",
    "SpecMemo",
    "compact_json",
    "encode_line",
    "decode_line",
    "error_reply",
    "submit_fields",
    "request_from_wire",
    "spec_fingerprint",
    "event_to_wire",
    "scene_job",
    "pgm_job",
    "pixels_job",
]

#: StreamReader line limit — inline float64 pixel payloads are large
#: (a 1024² image is ~11 MB of base64).
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Event names after which a stream ends.
TERMINAL_EVENTS = frozenset({"result", "error", "cancelled"})

#: Longest trace id a submit may carry.  Span ids the stack mints are
#: ~14 chars; anything past this bound is almost certainly abuse, and it
#: would ride every hop, bloat every span buffer, and come back in every
#: trace document — so it is rejected, never silently forwarded.
TRACE_ID_MAX_LEN = 128


#: The one compact encoding every wire surface shares (JSON lines, HTTP
#: bodies, SSE ``data:`` payloads) — byte-identical to
#: ``json.dumps(obj, separators=(",", ":"))``, which would build a new
#: encoder on every call.
compact_json = json.JSONEncoder(separators=(",", ":")).encode
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def encode_line(obj: Dict[str, Any]) -> bytes:
    return compact_json(obj).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServiceError(f"malformed protocol line: {exc}") from None
    if not isinstance(obj, dict):
        raise ServiceError(f"protocol messages are JSON objects, got {type(obj).__name__}")
    return obj


def error_reply(exc: ServiceError) -> Dict[str, Any]:
    """The one exception → ``ok: false`` reply mapping — the wire-error
    contract of the job server's connection loop, and the body of the
    gateway's HTTP error responses."""
    if isinstance(exc, ClusterError):
        return {"ok": False, "error": "no-backends", "message": str(exc)}
    if isinstance(exc, QuotaExceededError):
        return {"ok": False, "error": "quota-exceeded",
                "message": str(exc), "retry_after": exc.retry_after}
    if isinstance(exc, QueueFullError):
        return {"ok": False, "error": "queue-full",
                "message": str(exc), "retry_after": exc.retry_after}
    if isinstance(exc, JobNotFoundError):
        return {"ok": False, "error": "unknown-job", "message": str(exc)}
    if isinstance(exc, DeadlineExceededError):
        return {"ok": False, "error": "deadline-exceeded", "message": str(exc)}
    return {"ok": False, "error": "bad-request", "message": str(exc)}


def submit_fields(msg: Dict[str, Any]) -> Tuple[int, Optional[float], Optional[str]]:
    """The validated envelope of one ``submit``: ``(priority,
    deadline_at, trace)``.

    ``priority`` is an integer (default 0); ``deadline`` is a number of
    seconds, turned into a ``time.monotonic()`` instant (``None`` when
    absent); ``trace`` is a string of at most :data:`TRACE_ID_MAX_LEN`
    chars (``None`` when absent or empty).  Anything else raises
    :class:`ServiceError` — the one check service and router share.
    """
    priority = msg.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ServiceError(f"priority must be an integer, got {priority!r}")
    deadline = msg.get("deadline")
    deadline_at = None
    if deadline is not None:
        if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
            raise ServiceError(
                f"deadline must be a number of seconds, got {deadline!r}")
        deadline_at = time.monotonic() + max(0.0, float(deadline))
    trace = msg.get("trace")
    if trace is not None:
        if not isinstance(trace, str):
            raise ServiceError(
                f"trace id must be a string, got {type(trace).__name__}")
        if len(trace) > TRACE_ID_MAX_LEN:
            raise ServiceError(
                f"trace id exceeds {TRACE_ID_MAX_LEN} chars ({len(trace)})")
    return priority, deadline_at, trace or None


# -- job spec → DetectionRequest ----------------------------------------------

def _require_int(spec: Dict[str, Any], key: str, default=None) -> int:
    value = spec.get(key, default)
    if value is None:
        raise ServiceError(f"job spec is missing required field {key!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"job field {key!r} must be an integer, got {value!r}")
    return value


def request_from_wire(spec: Dict[str, Any]) -> DetectionRequest:
    """Build the engine request a job spec describes.

    Raises :class:`ServiceError` for anything malformed — the server
    turns that into an ``ok: false`` reply rather than a dead worker.
    """
    if not isinstance(spec, dict):
        raise ServiceError(f"job spec must be an object, got {type(spec).__name__}")
    sources = [k for k in ("scene", "image_path", "pixels") if spec.get(k) is not None]
    if len(sources) != 1:
        raise ServiceError(
            "job spec needs exactly one image source of 'scene', "
            f"'image_path', 'pixels'; got {sources or 'none'}"
        )
    strategy = spec.get("strategy", "intelligent")
    iterations = _require_int(spec, "iterations")
    seed = spec.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ServiceError(f"job field 'seed' must be an integer, got {seed!r}")
    record_every = _require_int(spec, "record_every", 50)
    options = spec.get("options") or {}
    if not isinstance(options, dict):
        raise ServiceError("job field 'options' must be an object")
    executor = spec.get("executor", "serial")
    if executor is not None and not isinstance(executor, str):
        raise ServiceError("job field 'executor' must be a string choice")
    n_workers = spec.get("n_workers")
    threshold = float(spec.get("threshold", 0.4))
    radius_mean = float(spec.get("radius_mean", 8.0))

    source = sources[0]
    try:
        if source == "scene":
            from repro.bench.workloads import synthetic_workload

            scene = spec["scene"]
            if not isinstance(scene, dict):
                raise ServiceError("job field 'scene' must be an object")
            workload = synthetic_workload(
                size=_require_int(scene, "size", 128),
                n_circles=_require_int(scene, "circles", 10),
                mean_radius=float(scene.get("mean_radius", 8.0)),
                threshold=float(scene.get("threshold", threshold)),
                seed=scene.get("seed", seed),
            )
            return workload.request(
                strategy,
                iterations=iterations,
                executor=executor,
                n_workers=n_workers,
                seed=seed,
                record_every=record_every,
                options=options or None,
            )
        if source == "image_path":
            from repro.imaging.pgm import read_pgm

            image = read_pgm(spec["image_path"])
        else:  # pixels
            image = _decode_pixels(spec["pixels"])
        return request_for_image(
            image,
            strategy,
            iterations=iterations,
            threshold=threshold,
            radius_mean=radius_mean,
            executor=executor,
            n_workers=n_workers,
            seed=seed,
            record_every=record_every,
            options=options or None,
        )
    except ServiceError:
        raise
    except Exception as exc:  # bad paths, bad model params, unknown options...
        raise ServiceError(f"invalid job spec: {exc}") from exc


def _decode_pixels(payload: Dict[str, Any]) -> Image:
    if not isinstance(payload, dict) or "shape" not in payload or "data" not in payload:
        raise ServiceError("job field 'pixels' needs 'shape' and 'data'")
    shape = payload["shape"]
    if not (isinstance(shape, (list, tuple)) and len(shape) == 2):
        raise ServiceError(f"pixels shape must be [height, width], got {shape!r}")
    try:
        raw = base64.b64decode(payload["data"], validate=True)
        arr = np.frombuffer(raw, dtype=np.float64).reshape(int(shape[0]), int(shape[1]))
    except (ValueError, TypeError) as exc:
        raise ServiceError(f"undecodable pixel payload: {exc}") from None
    return Image(arr)


def _encode_pixels(image: Image) -> Dict[str, Any]:
    return {
        "shape": [image.height, image.width],
        "data": base64.b64encode(np.ascontiguousarray(image.pixels).tobytes()).decode("ascii"),
    }


# -- repeat specs: fingerprint → request key -----------------------------------

#: Distinct payloads whose request key a server remembers (~100 B each).
SPEC_MEMO_CAPACITY = 512


def spec_fingerprint(spec: Any) -> Optional[str]:
    """A digest of the spec *document*: sha256 over the canonical JSON
    of every field but the inline pixel text, then that text itself.

    Two specs share a fingerprint only when they are the same document
    up to key order, so whatever a full parse derived from one (its
    request key, that it is valid at all) holds for the other — at the
    price of one hash instead of a base64 decode, an array build and an
    image digest.  ``None`` means "not memoisable, parse it":
    ``image_path`` specs (the bytes live on disk and may change under
    the same path) and anything that is not a JSON-shaped object with
    ASCII pixel text.
    """
    if not isinstance(spec, dict) or spec.get("image_path") is not None:
        return None
    pixels = spec.get("pixels")
    data = ""
    if pixels is not None:
        if not isinstance(pixels, dict) or not isinstance(pixels.get("data"), str):
            return None
        data = pixels["data"]
        spec = {**spec, "pixels": {k: v for k, v in pixels.items() if k != "data"}}
    try:
        digest = hashlib.sha256(_canonical_json(spec).encode("utf-8"))
        digest.update(b"\n")
        digest.update(data.encode("ascii"))
    except (TypeError, ValueError):  # unserialisable field / non-ASCII pixels
        return None
    return digest.hexdigest()


class SpecMemo:
    """Bounded LRU from :func:`spec_fingerprint` to the key a full
    parse of that spec produced in this process.

    Keys only — never the decoded request or its pixels — so a memo
    entry costs ~100 bytes however large the image was, and a hit still
    leaves every per-submit check (quota, priority, deadline, cache
    lookup) to its caller.  Not thread-safe: servers consult it on
    their event loop.
    """

    def __init__(self, obs: MetricsRegistry) -> None:
        self._keys: "OrderedDict[str, str]" = OrderedDict()
        self._lookups = {
            hit: obs.counter(
                "spec_memo_lookups_total",
                help="Submitted specs looked up in the fingerprint memo; "
                     "a miss is followed by a full parse.",
                result="hit" if hit else "miss",
            )
            for hit in (True, False)
        }

    def __len__(self) -> int:
        return len(self._keys)

    def lookup(self, spec: Any) -> Tuple[Optional[str], Optional[str]]:
        """``(fingerprint, memoised key)`` of *spec*; the key is
        ``None`` on first sight, the fingerprint too when the spec is
        not memoisable."""
        fingerprint = spec_fingerprint(spec)
        key = self._keys.get(fingerprint) if fingerprint is not None else None
        if key is not None:
            self._keys.move_to_end(fingerprint)
        self._lookups[key is not None].inc()
        return fingerprint, key

    def remember(self, fingerprint: Optional[str], key: Optional[str]) -> None:
        """Record the key a successful full parse produced (no-op for
        unmemoisable specs and uncacheable requests)."""
        if fingerprint is None or key is None:
            return
        self._keys[fingerprint] = key
        self._keys.move_to_end(fingerprint)
        while len(self._keys) > SPEC_MEMO_CAPACITY:
            self._keys.popitem(last=False)


# -- job spec builders (client-side conveniences) ------------------------------

def scene_job(
    size: int,
    circles: int,
    strategy: str = "intelligent",
    iterations: int = 2000,
    seed: Optional[int] = 0,
    threshold: float = 0.4,
    **extra: Any,
) -> Dict[str, Any]:
    """A submit payload for a server-generated synthetic scene."""
    job = {
        "scene": {"size": size, "circles": circles, "seed": seed, "threshold": threshold},
        "strategy": strategy,
        "iterations": iterations,
        "seed": seed,
    }
    job.update(extra)
    return job


def pgm_job(path: str, strategy: str = "intelligent", iterations: int = 2000,
            seed: Optional[int] = 0, **extra: Any) -> Dict[str, Any]:
    """A submit payload naming a PGM file the server can read."""
    job = {"image_path": str(path), "strategy": strategy,
           "iterations": iterations, "seed": seed}
    job.update(extra)
    return job


def pixels_job(image: Image, strategy: str = "intelligent", iterations: int = 2000,
               seed: Optional[int] = 0, **extra: Any) -> Dict[str, Any]:
    """A submit payload carrying the image inline (base64 float64)."""
    job = {"pixels": _encode_pixels(image), "strategy": strategy,
           "iterations": iterations, "seed": seed}
    job.update(extra)
    return job


# -- engine events → wire ------------------------------------------------------

def event_to_wire(event: DetectionEvent, cached: bool = False) -> Dict[str, Any]:
    """One engine event as its wire document."""
    if isinstance(event, TilePlannedEvent):
        return {
            "event": "planned",
            "index": event.index,
            "rect": [event.rect.x0, event.rect.y0, event.rect.x1, event.rect.y1],
            "expected_count": event.expected_count,
        }
    if isinstance(event, PartitionResultEvent):
        return {
            "event": "partition",
            "index": event.index,
            "n_tasks": event.n_tasks,
            "report": report_to_json(event.report),
            "circles": [[c.x, c.y, c.r] for c in event.circles],
        }
    if isinstance(event, ResultEvent):
        return {
            "event": "result",
            "cached": cached,
            "result": result_to_json(event.result),
        }
    raise ServiceError(f"unknown engine event {type(event).__name__}")
