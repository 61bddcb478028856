"""repro.engine — the unified detection engine.

One request schema, one strategy registry, one orchestration path.
The paper's whole point is *comparing* partitioning strategies on the
same detection workload; this package makes that comparison a one-line
change instead of a different pipeline function per scheme::

    from repro.engine import DetectionRequest, run

    result = run(DetectionRequest(
        image=workload.scene.image,
        spec=workload.model,
        move_config=workload.moves,
        iterations=10_000,
        strategy="intelligent",          # or naive / blind / periodic
        executor="auto",                 # or serial / thread / process
        seed=0,
        options={"theta": 0.5, "min_gap": 14},
    ))
    print(result.n_found, result.elapsed_seconds)
    for row in result.reports:           # identical shape for every strategy
        print(row.rect, row.expected_count, row.n_found, row.elapsed_seconds,
              row.converged_at)
    print(result.merge)                  # blind's merge counts, else None

**The schema** (:mod:`repro.engine.schema`): a
:class:`DetectionRequest` carries the image, model spec, move config,
iteration budget, seed, and executor choice; a
:class:`DetectionResult` carries the fitted circles, per-partition
:class:`PartitionReport` rows common to all strategies, wall-clock,
and blind partitioning's :class:`MergeCounts` — plain data that comes
back equal from a fresh run, the memory cache, the disk cache, or the
wire.

**Executors**: a string choice (``serial``/``thread``/``process``) is
constructed, context-managed, and shut down by the engine —
shared-memory image setup for process pools included; ``auto`` picks by
task count and budget; a live :class:`~repro.parallel.executor.Executor`
instance is used as-is and stays caller-owned.

**Adding a strategy**: subclass
:class:`~repro.engine.orchestrator.TiledStrategy` if your scheme is
"partition once, run independent chains, merge" — implement ``plan()``
(tile rectangles + per-tile count estimates) and ``merge()`` (tile
results → the merged circles, plus :class:`MergeCounts` if the merge
reconciles overlaps, else ``None``).  Subclass
:class:`~repro.engine.registry.Strategy` directly for anything else and
implement ``execute()``.  Either way decorate with
``@register_strategy("your-name")`` and declare ``option_keys``; the
strategy is then reachable from :func:`run`, ``repro detect
--strategy your-name``, and :meth:`repro.bench.workloads.Workload.request`.

**Batching & caching**: a :class:`DetectionBatch` carries N images (or
N explicit requests) through :func:`run_batch` on **one** shared
executor pool — thread/process pool start-up and shared-memory setup
are paid once per batch, not once per image — with results bit-identical
to N independent :func:`run` calls.  An optional
:class:`~repro.engine.cache.ResultCache` answers repeated requests from
memory or disk instead of recomputing: requests are content-addressed
by :func:`request_key` (image digest + strategy + model + moves + seed
+ options), so any changed field is a miss and identical re-runs are
free::

    from repro.engine import DetectionBatch, ResultCache, run_batch

    batch = DetectionBatch.from_images(
        images, spec=workload.model, move_config=workload.moves,
        iterations=10_000, strategy="intelligent", seed=0,
    )
    cache = ResultCache(directory=".repro-cache")
    out = run_batch(batch, cache=cache)          # computes N results
    again = run_batch(batch, cache=cache)        # N cache hits, no work
    assert again.n_computed == 0
    print(cache.stats.hit_rate, out.executor_kind)
"""

from __future__ import annotations

from dataclasses import replace as _replace

from typing import Iterator as _Iterator

from repro.engine.cache import CacheStats, ResultCache
from repro.engine.executors import (
    AsyncExecutor,
    SwitchingProcessExecutor,
    auto_budgets,
    auto_executor_kind,
    batch_pool,
    clear_auto_budget_cache,
    engine_executor,
)
from repro.engine.orchestrator import TiledStrategy, run_batch
from repro.engine.registry import (
    Strategy,
    available_strategies,
    get_strategy,
    register_strategy,
    unregister_strategy,
)
from repro.engine.schema import (
    EXECUTOR_CHOICES,
    PAPER_MOVE_WEIGHTS,
    BatchItemResult,
    BatchResult,
    DetectionBatch,
    DetectionEvent,
    DetectionRequest,
    DetectionResult,
    MergeCounts,
    PartitionReport,
    PartitionResultEvent,
    ResultEvent,
    StrategyOutput,
    TilePlan,
    TilePlannedEvent,
    image_digest,
    request_for_image,
    request_key,
    snapshot_seed,
    spawn_seeds,
)
from repro.obs import (
    close_span as _close_span,
    get_registry as _obs_registry,
    open_span as _open_span,
    span_context as _span_context,
    trace as _trace,
)
from repro.utils.timing import Stopwatch

# Importing the built-in strategies registers them.
from repro.engine import strategies as _strategies  # noqa: F401

__all__ = [
    "DetectionRequest",
    "DetectionResult",
    "DetectionBatch",
    "BatchItemResult",
    "BatchResult",
    "PartitionReport",
    "MergeCounts",
    "TilePlan",
    "StrategyOutput",
    "EXECUTOR_CHOICES",
    "Strategy",
    "TiledStrategy",
    "register_strategy",
    "unregister_strategy",
    "get_strategy",
    "available_strategies",
    "engine_executor",
    "auto_executor_kind",
    "auto_budgets",
    "clear_auto_budget_cache",
    "batch_pool",
    "AsyncExecutor",
    "SwitchingProcessExecutor",
    "DetectionEvent",
    "TilePlannedEvent",
    "PartitionResultEvent",
    "ResultEvent",
    "run",
    "run_stream",
    "run_batch",
    "request_key",
    "request_for_image",
    "PAPER_MOVE_WEIGHTS",
    "image_digest",
    "snapshot_seed",
    "spawn_seeds",
    "ResultCache",
    "CacheStats",
]


def _observe_run(strategy: str, output: StrategyOutput, elapsed: float) -> None:
    """Fold one finished run into the process-wide metrics registry."""
    obs = _obs_registry()
    obs.counter(
        "engine_runs_total",
        help="Completed engine runs, by strategy.",
        strategy=strategy,
    ).inc()
    obs.histogram(
        "engine_run_seconds",
        help="End-to-end engine run wall time, by strategy.",
        strategy=strategy,
    ).observe(elapsed)
    partitions = obs.histogram(
        "engine_partition_seconds",
        help="Per-partition chain wall time, by strategy.",
        strategy=strategy,
    )
    for report in output.reports:
        partitions.observe(report.elapsed_seconds)


def run(request: DetectionRequest) -> DetectionResult:
    """Execute *request* under its named strategy.

    Looks the strategy up in the registry, validates the request's
    strategy options, runs it (executor lifecycle engine-owned), and
    wraps the output in the common :class:`DetectionResult` shape.

    Requests are value objects: running the same request twice gives
    bit-identical results (the engine snapshots ``SeedSequence`` seeds
    so strategy-side spawning cannot leak state back — the property the
    result cache's "equal requests hit" contract rests on).  The one
    exception is deliberately stateful seeds (generators, streams),
    which continue their stream and are uncacheable.
    """
    strategy = get_strategy(request.strategy)
    strategy.validate(request)
    request = _replace(request, seed=snapshot_seed(request.seed))
    watch = Stopwatch().start()
    with _trace("engine.run", strategy=request.strategy):
        output = strategy.execute(request)
    elapsed = watch.stop()
    _observe_run(request.strategy, output, elapsed)
    return DetectionResult(
        strategy=request.strategy,
        circles=output.circles,
        reports=output.reports,
        elapsed_seconds=elapsed,
        executor_kind=output.executor_kind,
        n_tasks=output.n_tasks,
        merge=output.merge,
    )


def run_stream(request: DetectionRequest) -> _Iterator[DetectionEvent]:
    """Execute *request*, yielding events as the run progresses.

    The streaming twin of :func:`run`: yields a
    :class:`TilePlannedEvent` when the estimation phase produces each
    partition (its chain is dispatched at that moment — estimation
    overlaps execution on the :class:`AsyncExecutor`), a
    :class:`PartitionResultEvent` the moment each partition's chain
    completes (the per-tile result fragment, before merge), and finally
    a :class:`ResultEvent` carrying the merged :class:`DetectionResult`.

    The terminal result is bit-identical to :func:`run` on the same
    request: per-tile seeds are drawn in tile order regardless of
    completion order, and the merge consumes results in tile order.
    The detection service (:mod:`repro.service`) is the primary
    consumer — it forwards these events to streaming clients.
    """
    strategy = get_strategy(request.strategy)
    strategy.validate(request)
    request = _replace(request, seed=snapshot_seed(request.seed))
    watch = Stopwatch().start()
    # The stream span is opened before the strategy generator runs and
    # closed at the terminal: every next() executes under it, so the
    # per-partition spans recorded mid-stream parent under this span
    # (not beside it), and stage analysis can subtract kernel time from
    # the merge bucket.  The context never leaks between yields.
    stream_span = _open_span("engine.run_stream", strategy=request.strategy)
    gen = strategy.execute_stream(request)
    while True:
        try:
            with _span_context(stream_span):
                event = next(gen)
        except StopIteration as stop:
            output = stop.value
            break
        yield event
    elapsed = watch.stop()
    _close_span(stream_span, elapsed)
    _observe_run(request.strategy, output, elapsed)
    yield ResultEvent(result=DetectionResult(
        strategy=request.strategy,
        circles=output.circles,
        reports=output.reports,
        elapsed_seconds=elapsed,
        executor_kind=output.executor_kind,
        n_tasks=output.n_tasks,
        merge=output.merge,
    ))
