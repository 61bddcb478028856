"""Per-trace span collection with tail-based sampling.

The flat recent-span ring (:func:`repro.obs.trace.recent_spans`)
answers "what happened lately"; this module answers "what happened to
*that request*".  Every finished span is bucketed by its ``trace_id``
into a :class:`TraceCollector`, and a :class:`TraceSampler` decides —
once per trace, when it ages out of the collector's *recent* buffers
and its fate is known — which traces are worth keeping:

* traces marked **errored** or **deadline-hit** are always retained;
* traces whose top span ran longer than a **moving p95** of recent
  top-span durations are retained (the tail a flat ring loses first);
* a configurable **head-sampled fraction** is retained by a
  deterministic hash of the trace id, so a baseline of ordinary
  traffic survives for comparison;
* everything else is evicted, and the retained traces are themselves
  hard-bounded, oldest out first — a storm of errors cannot grow
  memory without limit, nor crowd out the traces just finished.

Filing a span costs amortised O(1) whatever the process has served:
no trace is judged twice and the p95 window is never re-sorted.

The collector is process-global (like the span ring) so spans recorded
anywhere in a process land in one place; ``op:trace`` serves its
buffers to the router, which reassembles the cluster-wide tree.
"""

from __future__ import annotations

import os
import threading
import zlib
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import Span

__all__ = [
    "TraceCollector",
    "TraceSampler",
    "collector_enabled",
    "get_collector",
    "mark_trace",
    "reset_collector",
    "set_collector_enabled",
    "trace_spans",
]

#: Bounded number of trace buffers a process keeps (protected included).
MAX_TRACES = int(os.environ.get("REPRO_TRACE_MAX_TRACES", "256"))
#: Bounded number of spans a single trace buffer accepts.
MAX_SPANS_PER_TRACE = int(os.environ.get("REPRO_TRACE_MAX_SPANS", "512"))
#: Fraction of ordinary traces retained by head sampling.
HEAD_FRACTION = float(os.environ.get("REPRO_TRACE_HEAD_FRACTION", "0.05"))
#: Sample size for the moving top-span-duration p95.
_P95_WINDOW = 128


class TraceSampler:
    """Tail-based keep/evict policy for finished traces.

    ``keep()`` is consulted once per trace, when it ages out of the
    collector's *recent* buffers; until then every trace is buffered,
    which is what makes the sampling *tail-based* — the decision
    happens after the outcome (error, deadline, duration) is known,
    not at the first span.

    A sampler holds no lock of its own: the collector that owns it
    calls it under the collector's lock.
    """

    def __init__(
        self,
        head_fraction: float = HEAD_FRACTION,
        p95_window: int = _P95_WINDOW,
    ):
        self.head_fraction = max(0.0, min(1.0, head_fraction))
        # The p95 window twice: arrival order (which sample expires
        # next) and sorted order (the percentile is one index away).
        self._durations: Deque[float] = deque(maxlen=max(1, p95_window))
        self._sorted: List[float] = []
        # Errored / deadline-hit trace ids awaiting their decision.  A
        # mark can precede the trace's first span or name a trace this
        # process never buffers, so the map is FIFO-capped at
        # ``MAX_TRACES`` (all a collector can hold undecided), not
        # tied to the buffers.
        self._marked: "OrderedDict[str, None]" = OrderedDict()

    def mark(self, trace_id: Optional[str], *, error: bool = False,
             deadline: bool = False) -> None:
        """Flag a trace as errored and/or deadline-hit (always kept)."""
        if not trace_id or not (error or deadline):
            return
        self._marked[str(trace_id)] = None
        if len(self._marked) > max(1, MAX_TRACES):
            self._marked.popitem(last=False)

    def note_duration(self, seconds: float) -> None:
        """Feed a top-span duration into the moving-p95 estimator."""
        if seconds is None or seconds != seconds:  # NaN has no rank
            return
        if len(self._durations) == self._durations.maxlen:
            expiring = self._durations[0]
            del self._sorted[bisect_left(self._sorted, expiring)]
        self._durations.append(float(seconds))
        insort(self._sorted, float(seconds))

    def moving_p95(self) -> Optional[float]:
        n = len(self._sorted)
        if n < 8:
            return None  # not enough signal to call anything slow
        return self._sorted[min(n - 1, (95 * n) // 100)]

    def head_sampled(self, trace_id: str) -> bool:
        """Deterministic per-trace coin flip at ``head_fraction``."""
        if self.head_fraction <= 0.0:
            return False
        bucket = zlib.crc32(trace_id.encode("utf-8", "replace")) % 10_000
        return bucket < self.head_fraction * 10_000

    def keep(self, trace_id: str, top_duration: Optional[float]) -> bool:
        """Should this trace survive eviction pressure?"""
        if trace_id in self._marked:
            return True
        p95 = self.moving_p95()
        # Strictly above: under perfectly uniform traffic every trace
        # *equals* the p95, and >= would protect all of them.
        if p95 is not None and top_duration is not None \
                and top_duration > p95:
            return True
        return self.head_sampled(trace_id)

    def forget(self, trace_id: str) -> None:
        self._marked.pop(trace_id, None)


class _TraceBuffer:
    __slots__ = ("spans", "top_duration")

    def __init__(self):
        self.spans: List["Span"] = []
        self.top_duration: Optional[float] = None


class TraceCollector:
    """Bounded per-trace-id span store with decide-once retention.

    Keyed by ``Span.trace_id``; an index from span id to trace id lets
    the router find "the trace containing span X" when all it holds is
    the submit span's id.  Buffers live in two FIFO maps.  A trace
    starts in *recent*, ordered by its latest span.  Over
    :attr:`max_traces`, the oldest recent trace is put to the sampler
    — once — and either evicted or moved to *retained*, which holds at
    most half of :attr:`max_traces` and sheds its own oldest.  So no
    trace is ever looked at twice, retention stays bounded when every
    trace is protected (a flood of errored jobs included), and the
    newest ``max_traces // 2`` traces are always complete.
    """

    def __init__(
        self,
        max_traces: int = MAX_TRACES,
        max_spans_per_trace: int = MAX_SPANS_PER_TRACE,
        sampler: Optional[TraceSampler] = None,
    ):
        self.max_traces = max(1, max_traces)
        self.max_spans_per_trace = max(1, max_spans_per_trace)
        self.sampler = sampler if sampler is not None else TraceSampler()
        self._recent: "OrderedDict[str, _TraceBuffer]" = OrderedDict()
        self._retained: "OrderedDict[str, _TraceBuffer]" = OrderedDict()
        self._span_index: Dict[str, str] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._recent) + len(self._retained)

    def add(self, span: "Span") -> None:
        """File a finished span under its trace id."""
        trace_id = getattr(span, "trace_id", None) or span.span_id
        with self._lock:
            buf = self._recent.get(trace_id)
            if buf is not None:
                self._recent.move_to_end(trace_id)
            else:
                buf = self._retained.get(trace_id)
                if buf is None:
                    buf = self._recent[trace_id] = _TraceBuffer()
                    self._evict_locked()
            if len(buf.spans) < self.max_spans_per_trace:
                buf.spans.append(span)
                self._span_index[span.span_id] = trace_id
            # The trace's "top" span — the trace root itself, or the
            # first local span hanging off a remote parent — drives
            # the sampler's moving p95.
            top = (span.span_id == trace_id or span.parent_id == trace_id)
            if top and span.duration_seconds is not None:
                if buf.top_duration is None \
                        or span.duration_seconds > buf.top_duration:
                    buf.top_duration = span.duration_seconds
                self.sampler.note_duration(span.duration_seconds)

    def _evict_locked(self) -> None:
        # Only a new buffer grows the store, and it sits at the young
        # end of *recent*, which always holds more than one trace here
        # (*retained* is capped at half), so it is never the victim.
        while len(self._recent) + len(self._retained) > self.max_traces:
            tid, buf = self._recent.popitem(last=False)
            keep = self.sampler.keep(tid, buf.top_duration)
            self.sampler.forget(tid)  # decided: the mark has done its job
            if keep:
                self._retained[tid] = buf
                if len(self._retained) <= self.max_traces // 2:
                    continue
                tid, buf = self._retained.popitem(last=False)
            for span in buf.spans:
                self._span_index.pop(span.span_id, None)

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._retained) + list(self._recent)

    def _buffer_locked(self, trace_id: str) -> Optional[_TraceBuffer]:
        return self._recent.get(trace_id) or self._retained.get(trace_id)

    def trace_for_span(self, span_id: Optional[str]) -> Optional[str]:
        """The trace id whose buffer contains *span_id*, if any."""
        if not span_id:
            return None
        with self._lock:
            tid = self._span_index.get(str(span_id))
            if tid is None and self._buffer_locked(str(span_id)) is not None:
                tid = str(span_id)  # remote root: keyed but never local
            return tid

    def spans(self, trace_id: Optional[str]) -> List[Dict[str, object]]:
        """All buffered spans of a trace, oldest first, as dicts."""
        if not trace_id:
            return []
        with self._lock:
            buf = self._buffer_locked(str(trace_id))
            spans = list(buf.spans) if buf is not None else []
        return [span.as_dict() for span in spans]

    def spans_for_member(self, span_id: Optional[str]) -> List[Dict[str, object]]:
        """Spans of the trace containing *span_id* (itself a valid key)."""
        return self.spans(self.trace_for_span(span_id))

    def mark(self, trace_id: Optional[str], *, error: bool = False,
             deadline: bool = False) -> None:
        with self._lock:
            self.sampler.mark(trace_id, error=error, deadline=deadline)

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self._retained.clear()
            self._span_index.clear()


_collector = TraceCollector()
_enabled = True


def get_collector() -> TraceCollector:
    """The process-global trace collector fed by finished spans."""
    return _collector


def collector_enabled() -> bool:
    return _enabled


def set_collector_enabled(flag: bool) -> bool:
    """Toggle span collection (the soak overhead gate's off switch).

    Returns the previous setting.  Disabling stops *collection* only;
    span timing, the recent ring, and the histograms are unaffected.
    """
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def reset_collector(max_traces: Optional[int] = None,
                    sampler: Optional[TraceSampler] = None) -> TraceCollector:
    """Swap in a fresh global collector (tests and knob changes)."""
    global _collector
    _collector = TraceCollector(
        max_traces=max_traces if max_traces is not None else MAX_TRACES,
        sampler=sampler,
    )
    return _collector


def mark_trace(trace_id: Optional[str], *, error: bool = False,
               deadline: bool = False) -> None:
    """Flag a trace on the global collector (always retained)."""
    _collector.mark(trace_id, error=error, deadline=deadline)


def trace_spans(trace_id: Optional[str]) -> List[Dict[str, object]]:
    """Spans of a trace on the global collector, as dicts."""
    spans = _collector.spans(trace_id)
    if not spans:
        spans = _collector.spans_for_member(trace_id)
    return spans
