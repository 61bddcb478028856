"""Unified observability: metrics registry, span tracing, exposition.

One stdlib-only substrate shared by every layer of the stack.  The
engine, service, cluster, and gateway each instrument themselves
against a :class:`MetricsRegistry` — the engine layer (free functions,
``ResultCache``) records into the process-wide default registry from
:func:`get_registry`, while each long-lived component (a
``DetectionService``, ``ShardRouter``, or ``Gateway``) owns a private
registry so co-hosted instances don't blend their numbers.  Exposition
merges any set of registries into compact JSON
(:func:`render_json` — the ``op:metrics`` / ``repro metrics`` surface)
or Prometheus text format (:func:`render_prometheus` — the gateway's
``GET /metrics``).

Tracing is span-shaped but deliberately small: ``with
trace("engine.run_stream"):`` times a block, links it to the enclosing
span via :mod:`contextvars`, appends it to a bounded in-process ring
(:func:`recent_spans`), and folds its duration into a
``trace_span_seconds`` histogram on the target registry.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.expo import (
    PROMETHEUS_CONTENT_TYPE,
    families_to_prometheus,
    merge_families,
    render_json,
    render_prometheus,
)
from repro.obs.trace import (
    Span,
    close_span,
    current_span,
    label_spans,
    open_span,
    record_span,
    recent_spans,
    remote_parent,
    span_context,
    trace,
)
from repro.obs.collect import (
    TraceCollector,
    TraceSampler,
    get_collector,
    mark_trace,
    reset_collector,
    set_collector_enabled,
    trace_spans,
)
from repro.obs.critical import (
    build_tree,
    critical_path,
    render_waterfall,
    stage_self_times,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "PROMETHEUS_CONTENT_TYPE",
    "families_to_prometheus",
    "merge_families",
    "render_json",
    "render_prometheus",
    "Span",
    "close_span",
    "current_span",
    "label_spans",
    "open_span",
    "span_context",
    "record_span",
    "recent_spans",
    "remote_parent",
    "trace",
    "TraceCollector",
    "TraceSampler",
    "get_collector",
    "mark_trace",
    "reset_collector",
    "set_collector_enabled",
    "trace_spans",
    "build_tree",
    "critical_path",
    "render_waterfall",
    "stage_self_times",
]
