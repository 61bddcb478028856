"""Tail-based trace sampling: the collector keeps what matters.

Property-style checks on :class:`TraceSampler` / :class:`TraceCollector`:
errored and slow traces always survive eviction pressure, retention is
hard-bounded under churn (protected traces included), and trace ids
propagate through nested/remote-parented spans so every span of one
request lands in one buffer.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, record_span, remote_parent, trace
from repro.obs import collect
from repro.obs.collect import (
    MAX_TRACES,
    TraceCollector,
    TraceSampler,
    collector_enabled,
    get_collector,
    reset_collector,
    set_collector_enabled,
    trace_spans,
)
from repro.obs.trace import Span

pytestmark = pytest.mark.fast


def make_span(span_id, trace_id=None, parent_id=None, duration=0.01,
              name="unit.span"):
    return Span(name=name, span_id=span_id, parent_id=parent_id,
                trace_id=trace_id or span_id, started=0.0,
                duration_seconds=duration)


@pytest.fixture
def no_sorting(monkeypatch):
    """Trip on any ``sorted()`` in the collector module: the p95 window
    is kept in order as samples arrive, never re-sorted per question."""
    def tripwire(*args, **kwargs):
        raise AssertionError("sorted() on the span path")
    monkeypatch.setattr(collect, "sorted", tripwire, raising=False)


class TestTraceSampler:
    def test_errored_trace_is_always_kept(self):
        sampler = TraceSampler(head_fraction=0.0)
        sampler.mark("t-err", error=True)
        assert sampler.keep("t-err", 0.0001)
        assert not sampler.keep("t-ok", 0.0001)

    def test_deadline_trace_is_always_kept(self):
        sampler = TraceSampler(head_fraction=0.0)
        sampler.mark("t-dl", deadline=True)
        assert sampler.keep("t-dl", None)

    def test_forget_clears_protection(self):
        sampler = TraceSampler(head_fraction=0.0)
        sampler.mark("t", error=True, deadline=True)
        sampler.forget("t")
        assert not sampler.keep("t", None)

    def test_p95_needs_a_minimum_sample(self):
        sampler = TraceSampler()
        for _ in range(7):
            sampler.note_duration(0.01)
        assert sampler.moving_p95() is None
        sampler.note_duration(0.01)
        assert sampler.moving_p95() == pytest.approx(0.01)

    def test_slow_trace_above_moving_p95_is_kept(self):
        sampler = TraceSampler(head_fraction=0.0)
        for _ in range(64):
            sampler.note_duration(0.010)
        assert sampler.keep("t-slow", 0.500)
        assert not sampler.keep("t-fast", 0.001)

    def test_p95_window_slides_without_sorting(self, no_sorting):
        sampler = TraceSampler(p95_window=16)
        rng = random.Random(7)
        window = []
        for _ in range(200):
            value = rng.random()
            sampler.note_duration(value)
            window = (window + [value])[-16:]
            ordered = sorted(window)
            expected = None if len(ordered) < 8 else \
                ordered[min(len(ordered) - 1, (95 * len(ordered)) // 100)]
            assert sampler.moving_p95() == expected

    def test_marks_on_unknown_traces_stay_bounded(self):
        # service/router mark traces this process may never buffer (or
        # has already evicted); nothing ever forgets those.
        coll = TraceCollector(max_traces=8)
        for i in range(100_000):
            coll.mark(f"ghost-{i}", error=i % 2 == 0, deadline=i % 2 == 1)
        assert len(coll.sampler._marked) <= MAX_TRACES
        assert coll.sampler.keep("ghost-99999", None)  # newest survive

    def test_head_fraction_bounds(self):
        none = TraceSampler(head_fraction=0.0)
        every = TraceSampler(head_fraction=1.0)
        ids = [f"trace-{i}" for i in range(50)]
        assert not any(none.head_sampled(t) for t in ids)
        assert all(every.head_sampled(t) for t in ids)

    def test_head_sampling_is_deterministic(self):
        a = TraceSampler(head_fraction=0.3)
        b = TraceSampler(head_fraction=0.3)
        ids = [f"trace-{i}" for i in range(200)]
        assert [a.head_sampled(t) for t in ids] == \
            [b.head_sampled(t) for t in ids]
        hits = sum(a.head_sampled(t) for t in ids)
        assert 0 < hits < len(ids)  # a fraction, not all-or-nothing


class TestTraceCollector:
    def test_spans_bucket_by_trace_id(self):
        coll = TraceCollector(max_traces=8)
        coll.add(make_span("a-1"))
        coll.add(make_span("a-2", trace_id="a-1", parent_id="a-1"))
        coll.add(make_span("b-1"))
        assert [s["span_id"] for s in coll.spans("a-1")] == ["a-1", "a-2"]
        assert [s["span_id"] for s in coll.spans("b-1")] == ["b-1"]
        assert coll.spans("missing") == []

    def test_member_span_resolves_its_trace(self):
        coll = TraceCollector(max_traces=8)
        coll.add(make_span("root"))
        coll.add(make_span("child", trace_id="root", parent_id="root"))
        assert coll.trace_for_span("child") == "root"
        assert [s["span_id"] for s in coll.spans_for_member("child")] == \
            ["root", "child"]

    def test_retention_is_bounded_under_churn(self):
        coll = TraceCollector(
            max_traces=4, sampler=TraceSampler(head_fraction=0.0))
        for i in range(200):
            coll.add(make_span(f"t-{i}"))
        assert len(coll) <= 4

    def test_errored_trace_survives_bulk_eviction(self):
        coll = TraceCollector(
            max_traces=4, sampler=TraceSampler(head_fraction=0.0))
        coll.add(make_span("t-err"))
        coll.mark("t-err", error=True)
        for i in range(200):
            coll.add(make_span(f"bulk-{i}"))
        assert "t-err" in coll.trace_ids()
        assert len(coll) <= 4

    def test_slow_trace_survives_bulk_eviction(self):
        coll = TraceCollector(
            max_traces=4, sampler=TraceSampler(head_fraction=0.0))
        # Warm the moving p95 with ordinary traffic first — tail
        # sampling cannot call anything slow before it has a baseline.
        for i in range(30):
            coll.add(make_span(f"warm-{i}", duration=0.001))
        coll.add(make_span("t-slow", duration=5.0))
        for i in range(200):
            coll.add(make_span(f"bulk-{i}", duration=0.001))
        assert "t-slow" in coll.trace_ids()

    def test_retention_bounded_even_when_all_protected(self):
        coll = TraceCollector(
            max_traces=4, sampler=TraceSampler(head_fraction=0.0))
        for i in range(50):
            tid = f"err-{i}"
            coll.mark(tid, error=True)
            coll.add(make_span(tid))
        assert len(coll) <= 4
        # The newest protected traces are the survivors.
        assert "err-49" in coll.trace_ids()

    def test_eviction_drops_span_index_entries(self):
        coll = TraceCollector(
            max_traces=2, sampler=TraceSampler(head_fraction=0.0))
        coll.add(make_span("t-0"))
        coll.add(make_span("t-0-child", trace_id="t-0", parent_id="t-0"))
        for i in range(10):
            coll.add(make_span(f"t-{i + 1}"))
        assert coll.trace_for_span("t-0-child") is None

    def test_per_trace_span_cap(self):
        coll = TraceCollector(max_traces=4, max_spans_per_trace=3)
        for i in range(10):
            coll.add(make_span(f"s-{i}", trace_id="t"))
        assert len(coll.spans("t")) == 3

    def test_clear(self):
        coll = TraceCollector(max_traces=4)
        coll.add(make_span("t"))
        coll.clear()
        assert len(coll) == 0
        assert coll.spans("t") == []


def add_job(coll, trace_id, total):
    """One request's four spans, filed innermost first the way nested
    ``with trace(...)`` blocks finish."""
    ids = [trace_id] + [f"{trace_id}/{k}" for k in range(3)]
    for depth in (3, 2, 1):
        coll.add(make_span(ids[depth], trace_id=trace_id,
                           parent_id=ids[depth - 1],
                           duration=total * (1 - 0.2 * depth)))
    coll.add(make_span(trace_id, duration=total))
    return ids


class TestRetentionUnderSaturation:
    def test_recent_traces_survive_saturation(self):
        # ~10 % of these are protected (5 % head + the p95 tail).  The
        # parent algorithm let them fill every slot, after which a
        # just-finished ordinary job came back with none of its spans.
        max_traces = 64
        coll = TraceCollector(max_traces=max_traces)
        rng = random.Random(2010)
        n_jobs = 10 * max_traces
        # Early enough that ~3x max_traces jobs follow it, late enough
        # that fewer than max_traces // 2 *protected* ones do — the
        # point where the retained FIFO would shed it.
        errored_at = n_jobs - 3 * max_traces
        jobs = []
        for i in range(n_jobs):
            tid = f"job-{i}"
            if i == errored_at:
                coll.mark(tid, error=True)  # marked before its spans land
            jobs.append(add_job(coll, tid, rng.lognormvariate(-5.0, 0.5)))
            assert len(coll) <= max_traces
        assert len(coll._retained) == max_traces // 2  # protection piled up
        for ids in jobs[-(max_traces // 2):]:
            assert [s["span_id"] for s in coll.spans(ids[0])] == \
                ids[:0:-1] + ids[:1]
            assert len(coll.spans_for_member(ids[-1])) == 4
        assert len(coll.spans(f"job-{errored_at}")) == 4

    def test_a_trace_is_judged_once(self, no_sorting):
        # Counts, not clocks: filing a span must not cost more the more
        # has been served.  20,000 traces through a default collector.
        coll = TraceCollector()
        calls = []
        judge = coll.sampler.keep
        coll.sampler.keep = lambda tid, top: calls.append(tid) or judge(tid, top)
        n = 20_000
        for i in range(n):
            if i % 50 == 0:
                coll.mark(f"t-{i}", error=True)
            coll.add(make_span(f"t-{i}", duration=(i % 97) / 1000.0))
        assert len(calls) == len(set(calls)) <= n
        assert len(coll) == coll.max_traces

    @settings(max_examples=60, deadline=None)
    @given(
        max_traces=st.integers(1, 8),
        ops=st.lists(st.one_of(
            st.tuples(st.just("add"), st.integers(0, 30),
                      st.floats(0.0, 1.0)),
            st.tuples(st.just("mark"), st.integers(0, 30)),
            st.tuples(st.just("clear")),
        ), max_size=200),
    )
    def test_store_invariants_under_interleaving(self, max_traces, ops):
        coll = TraceCollector(max_traces=max_traces,
                              sampler=TraceSampler(head_fraction=0.3))
        for n, op in enumerate(ops):
            if op[0] == "add":
                tid = f"t-{op[1]}"
                coll.add(make_span(f"s-{n}", trace_id=tid, parent_id=tid,
                                   duration=op[2]))
            elif op[0] == "mark":
                coll.mark(f"t-{op[1]}", error=True)
            else:
                coll.clear()
            recent, retained = set(coll._recent), set(coll._retained)
            assert not recent & retained
            assert len(recent) + len(retained) == len(coll) <= max_traces
            assert len(retained) <= max_traces // 2
            # No index entry outlives its trace's eviction.
            assert set(coll._span_index.values()) <= recent | retained
            assert set(coll.trace_ids()) == recent | retained


class TestTraceIdPropagation:
    def test_nested_spans_share_the_root_trace_id(self):
        reg = MetricsRegistry()
        coll = reset_collector(max_traces=16)
        try:
            with trace("outer", registry=reg) as outer:
                with trace("inner", registry=reg) as inner:
                    record_span("leaf", 0.001, registry=reg,
                                histogram_labels={})
            assert inner.trace_id == outer.span_id
            buffered = coll.spans(outer.span_id)
            assert {s["name"] for s in buffered} == \
                {"outer", "inner", "leaf"}
            assert all(s["trace_id"] == outer.span_id for s in buffered)
        finally:
            reset_collector()

    def test_remote_parent_seeds_the_wire_trace_id(self):
        reg = MetricsRegistry()
        coll = reset_collector(max_traces=16)
        try:
            with remote_parent("wire-id-123"):
                with trace("local.work", registry=reg) as span:
                    pass
            assert span.trace_id == "wire-id-123"
            assert [s["name"] for s in coll.spans("wire-id-123")] == \
                ["local.work"]
            # trace_spans falls through to member lookup either way.
            assert trace_spans("wire-id-123")
        finally:
            reset_collector()

    def test_disabled_collector_stops_collection_only(self):
        reg = MetricsRegistry()
        reset_collector(max_traces=16)
        previous = set_collector_enabled(False)
        try:
            assert not collector_enabled()
            with trace("dark.span", registry=reg) as span:
                pass
            assert get_collector().spans(span.span_id) == []
            doc = {f.name: f for f in reg.families()}
            assert "trace_span_seconds" in doc  # histogram still fed
        finally:
            set_collector_enabled(previous)
            reset_collector()
