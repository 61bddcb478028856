"""Span-style tracing: timed blocks with parent links.

``with trace("engine.run_stream"):`` times the block and records a
:class:`Span`.  Nesting is tracked through :mod:`contextvars`, so a
span opened inside another (even across ``await`` points, per-task in
asyncio) carries its parent's id — enough structure to reconstruct a
per-request stage tree from the ring buffer without dragging in a real
tracer.  Finished spans also fold their duration into a
``trace_span_seconds{span=...}`` histogram on the target registry, so
the metrics surface gets per-stage percentiles for free.

Spans also parent *across processes*: a submitter puts its span id on
the wire (the ``trace`` field of submit messages, the
``X-Repro-Trace`` HTTP header) and the receiving worker wraps the
job's run in :func:`remote_parent`, so a cluster-wide span scrape
shows backend engine spans nested under the router's submit span.
Span ids carry a per-process random prefix precisely so ids minted by
different processes in one cluster never collide in that merged view.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from repro.obs import collect as _collect
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "Span",
    "close_span",
    "current_span",
    "open_span",
    "record_span",
    "recent_spans",
    "remote_parent",
    "span_context",
    "trace",
]

#: How many finished spans the in-process ring keeps.
RECENT_SPAN_LIMIT = 512

_ids = itertools.count(1)
#: Per-process uniquifier: local counters would collide when spans from
#: several cluster processes are merged into one scrape.
_ID_PREFIX = uuid.uuid4().hex[:6]
_current: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)
_ring_lock = threading.Lock()
_recent: Deque["Span"] = deque(maxlen=RECENT_SPAN_LIMIT)


def _next_span_id() -> str:
    return f"{_ID_PREFIX}-{next(_ids):x}"


def _trace_id_for(parent: Optional["Span"], span_id: str) -> str:
    """Inherit the parent's trace id; a parentless span roots its own."""
    if parent is not None:
        return parent.trace_id or parent.span_id
    return span_id


def _finish(span: "Span", registry: Optional[MetricsRegistry],
            metric_labels: Dict[str, object]) -> "Span":
    """File a finished span — the ring, the per-trace collector — and
    feed its duration to the ``trace_span_seconds`` histogram."""
    with _ring_lock:
        _recent.append(span)
    if _collect.collector_enabled():
        _collect.get_collector().add(span)
    reg = registry if registry is not None else get_registry()
    reg.histogram(
        "trace_span_seconds",
        help="Durations of traced spans, by span name.",
        span=span.name,
        **metric_labels,
    ).observe(span.duration_seconds)
    return span


@dataclass
class Span:
    """One timed block: name, identity, parentage, duration."""

    name: str
    span_id: str
    parent_id: Optional[str] = None
    labels: Dict[str, str] = field(default_factory=dict)
    started: float = 0.0  # time.time() at entry, for ordering/reporting
    duration_seconds: Optional[float] = None
    #: The trace this span belongs to: inherited from the parent, or
    #: the span's own id when it is a root.  A remote-parent
    #: placeholder seeds it with the wire id, so every process that
    #: touches one request buffers its spans under the same key.
    trace_id: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "labels": dict(self.labels),
            "started": self.started,
            "duration_seconds": self.duration_seconds,
        }


def current_span() -> Optional[Span]:
    """The innermost open span in this context, if any."""
    return _current.get()


def recent_spans(limit: Optional[int] = None) -> List[Dict[str, object]]:
    """The most recent finished spans, oldest first."""
    with _ring_lock:
        spans = list(_recent)
    if limit is not None:
        spans = spans[-limit:]
    return [span.as_dict() for span in spans]


def label_spans(spans, node_id: str) -> List[Dict[str, object]]:
    """Span dicts tagged with a ``node`` label where they carry none —
    copies, never mutations, so a shared ring stays as recorded.
    Non-dict entries (a malformed wire reply) are dropped."""
    out = []
    for span in spans or []:
        if isinstance(span, dict):
            labels = {"node": node_id, **(span.get("labels") or {})}
            out.append({**span, "labels": labels})
    return out


def record_span(
    name: str,
    duration_seconds: float,
    registry: Optional[MetricsRegistry] = None,
    histogram_labels: Optional[Dict[str, object]] = None,
    **labels,
) -> Span:
    """Record an already-measured span.

    For code that cannot hold a ``with`` block open across its whole
    duration — generator pipelines like ``engine.run_stream`` measure
    the wall clock themselves and report it here at the terminal, so
    the span never leaks into the consumer's context between yields.

    By default every label also keys the ``trace_span_seconds``
    histogram; pass *histogram_labels* to decouple them when the span
    carries high-cardinality detail (job ids, tile indices) that must
    not mint a metric series per value.
    """
    span = open_span(name, **labels)
    span.started -= max(duration_seconds, 0.0)
    return close_span(span, duration_seconds, registry,
                      histogram_labels if histogram_labels is not None
                      else labels)


def open_span(name: str, **labels) -> Span:
    """Mint a span now, to be finished later with :func:`close_span`.

    For generator pipelines whose children must parent under a span
    that cannot hold a ``with`` block open: ``engine.run_stream`` opens
    its span before driving the strategy generator, wraps each
    ``next()`` in :func:`span_context` so the per-partition spans
    recorded mid-stream hang off it, and closes it at the terminal —
    without the span ever leaking into the consumer's context between
    yields.  Parent and trace id are captured from the *current*
    context at open time, exactly as :func:`trace` would.
    """
    parent = _current.get()
    span_id = _next_span_id()
    return Span(
        name=name,
        span_id=span_id,
        parent_id=parent.span_id if parent is not None else None,
        labels={str(k): str(v) for k, v in labels.items()},
        started=time.time(),
        trace_id=_trace_id_for(parent, span_id),
    )


@contextmanager
def span_context(span: Optional[Span]) -> Iterator[Optional[Span]]:
    """Make *span* the current parent for the duration of the block
    (a no-op for ``None``, so call sites need no conditional)."""
    if span is None:
        yield None
        return
    token = _current.set(span)
    try:
        yield span
    finally:
        _current.reset(token)


def close_span(
    span: Span,
    duration_seconds: float,
    registry: Optional[MetricsRegistry] = None,
    histogram_labels: Optional[Dict[str, object]] = None,
) -> Span:
    """Finish a span minted by :func:`open_span`: stamp the duration,
    file it, and feed the ``trace_span_seconds`` histogram (span labels
    by default, *histogram_labels* to decouple — see
    :func:`record_span`)."""
    span.duration_seconds = duration_seconds
    return _finish(span, registry, histogram_labels
                   if histogram_labels is not None else span.labels)


@contextmanager
def remote_parent(span_id: Optional[str]) -> Iterator[Optional[Span]]:
    """Parent spans opened inside this block under a *remote* span id.

    The cross-process half of span propagation: a worker that received
    a submitter's span id on the wire wraps the job's execution in
    ``with remote_parent(trace_id):`` and every span recorded inside —
    on this thread/task — links to the submitter's span.  The synthetic
    placeholder span is never recorded itself (it has no duration
    here); a falsy *span_id* makes the block a no-op so call sites
    need no conditional.
    """
    if not span_id:
        yield None
        return
    placeholder = Span(name="remote", span_id=str(span_id),
                       trace_id=str(span_id))
    token = _current.set(placeholder)
    try:
        yield placeholder
    finally:
        _current.reset(token)


@contextmanager
def trace(
    name: str,
    registry: Optional[MetricsRegistry] = None,
    **labels,
) -> Iterator[Span]:
    """Time a block as a span under the current context's parent."""
    span = open_span(name, **labels)
    token = _current.set(span)
    t0 = time.perf_counter()
    try:
        yield span
    finally:
        span.duration_seconds = time.perf_counter() - t0
        _current.reset(token)
        _finish(span, registry, labels)
