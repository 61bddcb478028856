"""The one orchestration path shared by the tiled strategies.

naive / blind / intelligent partitioning all reduce to the same run
shape — *estimate → build tasks → dispatch → merge* — and used to carry
a private copy of it each.  :class:`TiledStrategy` owns that path once;
a concrete strategy only says how to **plan** its partitions (geometry
plus per-partition count estimates) and how to **merge** the
per-partition chains' results back into one model.

The periodic sampler is not tiled (its partitions change every cycle)
so it implements :class:`~repro.engine.registry.Strategy` directly; see
:mod:`repro.engine.strategies`.

:func:`run_batch` is the batch dispatch path: N requests through one
shared executor pool (start-up amortised across the dataset) with an
optional content-addressed result cache answering repeats.
"""

from __future__ import annotations

import time
from abc import abstractmethod
from dataclasses import replace
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.subimage import (
    SubImageResult,
    make_subimage_task,
    run_subimage_task,
)
from repro.engine.cache import ResultCache
from repro.engine.executors import (
    BATCH_TASKS_PER_REQUEST,
    AsyncExecutor,
    SwitchingProcessExecutor,
    batch_pool,
    engine_executor,
)
from repro.engine.registry import Strategy
from repro.engine.schema import (
    BatchItemResult,
    BatchResult,
    DetectionBatch,
    DetectionEvent,
    DetectionRequest,
    MergeCounts,
    PartitionReport,
    PartitionResultEvent,
    StrategyOutput,
    TilePlan,
    TilePlannedEvent,
    request_key,
)
from repro.geometry.circle import Circle
from repro.obs import get_registry as _obs_registry
from repro.obs import record_span as _record_span
from repro.parallel.sharedmem import set_worker_image
from repro.utils.rng import coerce_stream
from repro.utils.timing import Stopwatch

__all__ = ["TiledStrategy", "run_batch"]


def _observe_executor_wait(
    submit_times: Dict[int, float], index: int, res: SubImageResult
) -> None:
    """Record submit→completion overhead beyond the chain's own run time.

    The chain reports its compute wall clock (``elapsed_seconds``);
    anything above that between ``AsyncExecutor.submit`` and result
    arrival is queueing/scheduling — the signal for "the pool is the
    bottleneck, not the chains".
    """
    submitted = submit_times.pop(index, None)
    if submitted is None:
        return
    wait = (time.perf_counter() - submitted) - res.elapsed_seconds
    _obs_registry().histogram(
        "engine_executor_wait_seconds",
        help="Executor queue/scheduling wait beyond chain compute time.",
    ).observe(max(wait, 0.0))


def _record_partition_span(
    request: DetectionRequest, index: int, res: SubImageResult
) -> None:
    """One ``engine.partition`` span per finished tile worker.

    Recorded coordinator-side at completion (contextvars don't cross
    pool workers, and process workers can't share the ring anyway)
    from the chain's self-reported compute clock, so the span parents
    under whatever engine/service span is open here.
    """
    move = request.move_config
    batch = getattr(move, "proposal_batch", 1) if move else 1
    # Tile index and iteration count are span detail, not metric keys:
    # per-tile histogram series would grow with the partition count.
    _record_span(
        "engine.partition",
        res.elapsed_seconds,
        histogram_labels={"proposal_batch": batch},
        tile=index,
        iterations=res.iterations,
        proposal_batch=batch,
    )

def _partition_report(tile: TilePlan, res: SubImageResult) -> PartitionReport:
    """One tile's :class:`PartitionReport` from its finished chain."""
    return PartitionReport(
        rect=tile.rect,
        expected_count=tile.expected_count,
        n_found=len(res.circles),
        iterations=res.iterations,
        elapsed_seconds=res.elapsed_seconds,
        converged_at=res.convergence_iteration(),
    )


#: Sentinel: plan_stream has not yet returned its merge context.
_PLAN_PENDING = object()


class TiledStrategy(Strategy):
    """Shared estimate → build → dispatch → merge path.

    Determinism contract: the only RNG consumption on this path is one
    ``integers`` draw per tile, in tile order, from the request seed's
    root stream, which is what keeps a fixed-seed result bit-identical
    across executors and between :meth:`execute` and
    :meth:`execute_stream`.
    """

    @abstractmethod
    def plan(self, request: DetectionRequest) -> Tuple[List[TilePlan], Any]:
        """Partition the image: return ``(tiles, context)`` where each
        tile carries the chain's region and prior count estimate and
        *context* is whatever :meth:`merge` needs back."""

    @abstractmethod
    def merge(
        self,
        request: DetectionRequest,
        context: Any,
        sub_results: List[SubImageResult],
    ) -> Tuple[List[Circle], Optional[MergeCounts]]:
        """Recombine per-tile results into one model: return the merged
        circles and, for a strategy that reconciles overlapping tiles,
        its :class:`MergeCounts` (``None`` otherwise)."""

    def plan_stream(
        self, request: DetectionRequest
    ) -> Generator[TilePlan, None, Any]:
        """Yield tiles one at a time; return :meth:`merge`'s context.

        The streaming path dispatches each tile's chain the moment it is
        yielded, so a strategy whose estimation work is per-tile
        (threshold scans, count integrals) should override this to
        interleave estimation with execution.  The default drains
        :meth:`plan` — correct, but all estimation happens before any
        chain starts.  Must produce exactly :meth:`plan`'s tiles in
        :meth:`plan`'s order (the determinism contract: per-tile seeds
        are drawn in yield order).
        """
        tiles, context = self.plan(request)
        yield from tiles
        return context

    def execute(self, request: DetectionRequest) -> StrategyOutput:
        tiles, context = self.plan(request)
        stream = coerce_stream(request.seed)
        tasks = [
            make_subimage_task(
                tile.rect,
                request.spec,
                request.move_config,
                expected_count=tile.expected_count,
                iterations=request.iterations,
                seed=int(stream.rng.integers(0, 2**63 - 1)),
                record_every=request.record_every,
            )
            for tile in tiles
        ]
        # Serial/thread executors run worker code in this process; process
        # pools install their copy via the shared-memory initializer.
        set_worker_image(request.image.pixels)
        with engine_executor(request, request.image, len(tasks)) as (exec_, kind):
            sub_results = exec_.map(run_subimage_task, tasks)
        for index, res in enumerate(sub_results):
            _record_partition_span(request, index, res)
        circles, merge = self.merge(request, context, sub_results)
        return StrategyOutput(
            circles=list(circles),
            reports=[_partition_report(t, r) for t, r in zip(tiles, sub_results)],
            n_tasks=len(tasks),
            executor_kind=kind,
            merge=merge,
        )

    def execute_stream(
        self, request: DetectionRequest
    ) -> Generator[DetectionEvent, None, StrategyOutput]:
        """The streaming twin of :meth:`execute`.

        Estimation overlaps execution: each tile's chain is submitted to
        an :class:`AsyncExecutor` the moment :meth:`plan_stream` yields
        it, while later tiles are still being estimated; each chain's
        result fragment is yielded as a :class:`PartitionResultEvent` as
        soon as it completes, before (and independent of) the merge.

        Tiles are buffered up to the default task-count hint before the
        pool opens: a plan of that many tiles or fewer sizes ``auto``
        dispatch exactly like the blocking path (in particular, a
        single-partition plan stays serial — no process pool for one
        chain), and a longer plan's hint *under*-estimates the real
        count, so streaming may pick a cheaper pool kind than ``run()``
        but never a heavier one.

        Determinism: per-tile seeds are drawn in tile order from the
        request seed's root stream — the same draws :meth:`execute`
        makes — and :meth:`merge` consumes results in tile order, so the
        returned output is bit-identical to the blocking path no matter
        the completion order (or pool kind).
        """
        stream = coerce_stream(request.seed)
        set_worker_image(request.image.pixels)
        plan_gen = self.plan_stream(request)
        tiles: List[TilePlan] = []
        context = _PLAN_PENDING
        buffered: List[TilePlan] = []
        while len(buffered) < BATCH_TASKS_PER_REQUEST and context is _PLAN_PENDING:
            try:
                buffered.append(next(plan_gen))
            except StopIteration as stop:
                context = stop.value
        expected = len(buffered) if context is not _PLAN_PENDING else None

        def build_task(tile: TilePlan):
            return make_subimage_task(
                tile.rect,
                request.spec,
                request.move_config,
                expected_count=tile.expected_count,
                iterations=request.iterations,
                seed=int(stream.rng.integers(0, 2**63 - 1)),
                record_every=request.record_every,
            )

        submit_times: Dict[int, float] = {}
        with AsyncExecutor(request, request.image, expected_tasks=expected) as pool:
            pending = iter(buffered)
            while True:
                tile = next(pending, None)
                if tile is None:
                    if context is not _PLAN_PENDING:
                        break
                    try:
                        tile = next(plan_gen)
                    except StopIteration as stop:
                        context = stop.value
                        break
                index = pool.submit(run_subimage_task, build_task(tile))
                submit_times[index] = time.perf_counter()
                tiles.append(tile)
                yield TilePlannedEvent(
                    index=index,
                    rect=tile.rect,
                    expected_count=tile.expected_count,
                )
                for done_index, res in pool.completed():
                    _observe_executor_wait(submit_times, done_index, res)
                    _record_partition_span(request, done_index, res)
                    yield self._fragment_event(tiles, done_index, res, None)
            n_tasks = len(tiles)
            for done_index, res in pool.iter_completed():
                _observe_executor_wait(submit_times, done_index, res)
                _record_partition_span(request, done_index, res)
                yield self._fragment_event(tiles, done_index, res, n_tasks)
            sub_results = pool.results()
            kind = pool.kind
        circles, merge = self.merge(request, context, sub_results)
        return StrategyOutput(
            circles=list(circles),
            reports=[_partition_report(t, r) for t, r in zip(tiles, sub_results)],
            n_tasks=n_tasks,
            executor_kind=kind,
            merge=merge,
        )

    @staticmethod
    def _fragment_event(
        tiles: List[TilePlan],
        index: int,
        res: SubImageResult,
        n_tasks: Optional[int],
    ) -> PartitionResultEvent:
        return PartitionResultEvent(
            index=index,
            report=_partition_report(tiles[index], res),
            circles=list(res.circles),
            n_tasks=n_tasks,
        )


def run_batch(
    batch: DetectionBatch,
    cache: Optional[ResultCache] = None,
    executor: Optional[str] = None,
    n_workers: Optional[int] = None,
) -> BatchResult:
    """Run every request in *batch* through one shared executor pool.

    Results are bit-identical to N independent :func:`repro.engine.run`
    calls on the same requests — the pool only changes *where* chains
    run, never their seeds or task order — but thread/process pool
    start-up and shared-memory plumbing are paid once per batch, not
    once per image.

    With a *cache*, each request's :func:`request_key` is looked up
    first: hits skip computation entirely (their stored result is
    returned, ``cached=True``), misses are computed on the shared pool
    and stored.  Uncacheable requests (``None``/stateful seeds,
    non-serialisable options) always compute.

    The pool kind comes from *executor* if given, else the first
    pending request's string choice, else ``auto``; the batch owns the
    pool, so per-request executor fields are overridden for dispatch.
    """
    watch = Stopwatch().start()
    keys = [
        request_key(req) if cache is not None else None
        for req in batch.requests
    ]
    items: List[Optional[BatchItemResult]] = [None] * len(batch.requests)
    pending: List[int] = []
    for i, (req, key) in enumerate(zip(batch.requests, keys)):
        hit = cache.get(key) if key is not None else None
        if hit is not None:
            items[i] = BatchItemResult(request=req, result=hit, key=key, cached=True)
        else:
            pending.append(i)

    kind_used = "cache"
    if pending:
        from repro.engine import run  # circular at import time only

        first = batch.requests[pending[0]]
        choice = executor
        if choice is None:
            choice = first.executor if isinstance(first.executor, str) else "auto"
        workers = n_workers if n_workers is not None else first.n_workers
        with batch_pool(
            choice, len(pending), first.iterations, n_workers=workers
        ) as (pool, kind_used):
            for i in pending:
                req = batch.requests[i]
                if isinstance(pool, SwitchingProcessExecutor):
                    pool.use_image(req.image)
                result = run(replace(req, executor=pool))
                if cache is not None and keys[i] is not None:
                    cache.put(keys[i], result)
                items[i] = BatchItemResult(
                    request=req, result=result, key=keys[i], cached=False
                )

    return BatchResult(
        items=[item for item in items if item is not None],
        elapsed_seconds=watch.stop(),
        executor_kind=kind_used,
    )
