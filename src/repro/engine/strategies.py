"""The paper's four partitioning schemes as registered strategies.

The tiled three (naive, blind, intelligent) supply only *plan* and
*merge* — the run shape lives in
:class:`~repro.engine.orchestrator.TiledStrategy`.  Periodic
partitioning wraps the §V sampler directly (its partitions are
re-randomised every cycle, so there is no up-front tile plan).
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Any, Generator, List, Tuple

from repro.core.periodic import (
    PeriodicPartitioningSampler,
    grid_partitioner,
    single_point_partitioner,
)
from repro.core.phases import PhaseSchedule
from repro.core.subimage import SubImageResult
from repro.engine.executors import engine_executor
from repro.engine.orchestrator import TiledStrategy
from repro.engine.registry import Strategy, register_strategy
from repro.engine.schema import (
    DetectionRequest,
    MergeCounts,
    PartitionReport,
    StrategyOutput,
    TilePlan,
)
from repro.errors import PartitioningError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.imaging.density import estimate_count_in_rect
from repro.imaging.filters import threshold_filter
from repro.mcmc.diagnostics import convergence_iteration
from repro.partitioning.intelligent import segment_image
from repro.partitioning.merge import concat_models, merge_blind_models
from repro.partitioning.blind import blind_partitions

__all__ = [
    "NaiveStrategy",
    "BlindStrategy",
    "IntelligentStrategy",
    "PeriodicStrategy",
]


def _drain_plan(gen: Generator) -> Tuple[List[TilePlan], Any]:
    """Collect an incremental :meth:`plan_stream` into ``plan()`` form.

    Strategies whose estimation is naturally per-tile implement the
    generator as the single source of truth and express the blocking
    ``plan()`` through this, so the two paths cannot drift.
    """
    tiles: List[TilePlan] = []
    while True:
        try:
            tiles.append(next(gen))
        except StopIteration as stop:
            return tiles, stop.value


@register_strategy("naive")
class NaiveStrategy(TiledStrategy):
    """Naive partitioning — the broken baseline (§I, §V motivation).

    "'Naively' bisecting an image and considering the two equal halves
    separately will ... not yield the same results as processing the
    entire image at once.  Even in the absence of global properties,
    artifacts that intersect with a partition boundary may be found
    twice ..., be poorly identified ..., or not be found at all."

    Implemented exactly so the benchmarks can *show* those anomalies:
    a plain grid with **no overlap**, each tile given the area-scaled
    share of the whole-image prior (the uniform-density assumption
    §VIII criticises), independent chains, and concatenation without
    any reconciliation.  :func:`repro.core.evaluation.cut_lines` gives
    the interior grid lines of the result's report rects.
    """

    option_keys = frozenset({"nx", "ny"})

    def plan(self, request: DetectionRequest) -> Tuple[List[TilePlan], Any]:
        nx = int(request.option("nx", 2))
        ny = int(request.option("ny", 2))
        bounds = request.image.bounds
        xs = [bounds.x0 + bounds.width * i / nx for i in range(nx + 1)]
        ys = [bounds.y0 + bounds.height * j / ny for j in range(ny + 1)]
        tiles_rects = [
            Rect(xs[i], ys[j], xs[i + 1], ys[j + 1])
            for j in range(ny)
            for i in range(nx)
        ]
        spec = request.spec
        tiles = [
            # The naive prior allocation: whole-image count scaled by area.
            TilePlan(rect=t, expected_count=spec.expected_count * (t.area / bounds.area))
            for t in tiles_rects
        ]
        return tiles, None

    def merge(
        self,
        request: DetectionRequest,
        context: None,
        sub_results: List[SubImageResult],
    ) -> Tuple[List[Circle], None]:
        return concat_models([r.circles for r in sub_results]), None


@register_strategy("blind")
class BlindStrategy(TiledStrategy):
    """Blind partitioning (§VIII–IX, Fig. 4).

    1. split the image into an ``nx × ny`` grid of *core* cells, each
       expanded by an overlap margin sized so "the largest expected
       artifact will fit inside" (the paper uses 1.1 × the expected
       radius: ``overlap_factor``);
    2. estimate each expanded region's artifact count with eq. (5);
    3. run an independent full RJMCMC chain per expanded region;
    4. reconcile the overlapping models with the §IX heuristics
       (:func:`repro.partitioning.merge.merge_blind_models`):
       core-filter, union, proximity-merge duplicates, apply the
       dispute policy.  The result's ``merge`` carries the accounting.

    Unlike periodic partitioning this is *not* statistically equivalent
    to conventional MCMC — the result is a point estimate with possible
    boundary anomalies, in exchange for fully independent (hence
    perfectly parallel) partition processing.
    """

    option_keys = frozenset(
        {"nx", "ny", "overlap_factor", "theta", "merge_distance", "dispute_policy"}
    )

    def plan(self, request: DetectionRequest) -> Tuple[List[TilePlan], Any]:
        return _drain_plan(self.plan_stream(request))

    def plan_stream(
        self, request: DetectionRequest
    ) -> Generator[TilePlan, None, Any]:
        """Incremental planning: each partition's count estimate is an
        integral over its expanded rect, so a tile is dispatchable (and,
        on the streaming path, dispatched) before the next partition's
        estimation has run."""
        nx = int(request.option("nx", 2))
        ny = int(request.option("ny", 2))
        overlap_factor = float(request.option("overlap_factor", 1.1))
        theta = float(request.option("theta", 0.5))
        spec = request.spec
        parts = blind_partitions(
            request.image.bounds, nx, ny, overlap_factor * spec.radius_mean
        )
        binary = threshold_filter(request.image, theta)
        for p in parts:
            est = estimate_count_in_rect(
                binary, p.expanded, theta=0.5, radius=spec.radius_mean
            )
            yield TilePlan(rect=p.expanded, expected_count=est)
        return parts

    def merge(
        self,
        request: DetectionRequest,
        context: Any,
        sub_results: List[SubImageResult],
    ) -> Tuple[List[Circle], MergeCounts]:
        report = merge_blind_models(
            context,
            [r.circles for r in sub_results],
            merge_distance=float(request.option("merge_distance", 5.0)),
            dispute_policy=request.option("dispute_policy", "accept"),
        )
        counts = MergeCounts(
            **{f.name: getattr(report, f.name) for f in fields(MergeCounts)}
        )
        return report.circles, counts


@register_strategy("intelligent")
class IntelligentStrategy(TiledStrategy):
    """Intelligent partitioning (§VIII–IX, Fig. 3, Table I).

    Stages, exactly as the paper runs them on the bead image:

    1. threshold-filter the image (θ = 0.5 in the paper);
    2. segment along empty rows/columns
       (:func:`repro.partitioning.intelligent.segment_image`);
    3. estimate each partition's expected artifact count with eq. (5);
    4. run an independent full RJMCMC chain per partition;
    5. concatenate the models — partitions are disjoint, so
       recombination is trivial.

    Table I's per-partition columns are the result's reports: area is
    ``rect.area``, the eq. (5) estimate ``expected_count``, runtime
    ``elapsed_seconds``, iterations to convergence ``converged_at``;
    the area-scaled "density" estimate it is compared against is
    :func:`repro.imaging.density.estimate_count_by_area`.
    """

    option_keys = frozenset({"theta", "min_gap", "pad", "trim"})

    def plan(self, request: DetectionRequest) -> Tuple[List[TilePlan], Any]:
        return _drain_plan(self.plan_stream(request))

    def plan_stream(
        self, request: DetectionRequest
    ) -> Generator[TilePlan, None, Any]:
        """Incremental planning: segmentation is one up-front pass, but
        the per-partition estimation (eq. (5) threshold/density counts)
        runs tile by tile — each segment's chain starts while the
        remaining segments are still being estimated."""
        theta = float(request.option("theta", 0.5))
        min_gap = float(request.option("min_gap", 8.0))
        pad = float(request.option("pad", 3.0))
        trim = bool(request.option("trim", False))
        binary = threshold_filter(request.image, theta)
        segmentation = segment_image(binary, min_gap=min_gap, pad=pad, trim=trim)
        if len(segmentation) == 0:
            raise PartitioningError(
                "segmentation produced no partitions (image empty at this "
                "threshold?)"
            )
        for rect in segmentation.partitions:
            est = estimate_count_in_rect(
                binary, rect, theta=0.5, radius=request.spec.radius_mean
            )
            yield TilePlan(rect=rect, expected_count=est)
        return None

    def merge(
        self,
        request: DetectionRequest,
        context: None,
        sub_results: List[SubImageResult],
    ) -> Tuple[List[Circle], None]:
        return concat_models([r.circles for r in sub_results]), None


@register_strategy("periodic")
class PeriodicStrategy(Strategy):
    """§V periodic partitioning — statistically valid data-parallel
    MCMC via alternating global/local phases.  Its one report covers the
    whole image; ``converged_at`` is measured on the sampler's posterior
    trace.

    ``request.iterations`` is the *total* budget; ``options`` mirror the
    :class:`~repro.core.periodic.PeriodicPartitioningSampler` knobs:

    ``local_iters``
        Iterations per local phase (default: a quarter of the total,
        at least 1 — four-ish cycles).
    ``grid_spacing``
        ``(sx, sy)`` for the §V grid partitioner; default is the Fig. 2
        single-random-point scheme.
    ``partitioner``
        A fully custom partitioner callable (overrides ``grid_spacing``).
    ``speculative_width`` / ``local_speculative_width``
        Speculative-move widths (eqs. (3)/(4)).
    """

    option_keys = frozenset(
        {
            "local_iters",
            "grid_spacing",
            "partitioner",
            "speculative_width",
            "local_speculative_width",
        }
    )

    def execute(self, request: DetectionRequest) -> StrategyOutput:
        local_iters = int(
            request.option("local_iters", max(1, request.iterations // 4))
        )
        schedule = PhaseSchedule(local_iters=local_iters, qg=request.move_config.qg)
        partitioner = request.option("partitioner")
        spacing = request.option("grid_spacing")
        if partitioner is None:
            partitioner = (
                grid_partitioner(*spacing)
                if spacing is not None
                else single_point_partitioner()
            )
        # Executor sizing: the local phases dispatch one task per cell, so
        # the concurrent task count is the partitioner's cell count — 4
        # for the single-point scheme, the grid size for a grid.
        bounds = request.image.bounds
        if spacing is not None:
            est_cells = max(1, math.ceil(bounds.width / spacing[0])) * max(
                1, math.ceil(bounds.height / spacing[1])
            )
        else:
            est_cells = 4
        with engine_executor(request, request.image, est_cells) as (exec_, kind):
            sampler = PeriodicPartitioningSampler(
                request.image,
                request.spec,
                request.move_config,
                schedule,
                partitioner=partitioner,
                executor=exec_,
                seed=request.seed,
                record_every=request.record_every,
                speculative_width=int(request.option("speculative_width", 1)),
                local_speculative_width=int(
                    request.option("local_speculative_width", 1)
                ),
            )
            result = sampler.run(request.iterations)
        circles = list(result.final_circles)
        report = PartitionReport(
            rect=request.image.bounds,
            expected_count=request.spec.expected_count,
            n_found=len(circles),
            iterations=result.iterations,
            elapsed_seconds=result.elapsed_seconds,
            converged_at=convergence_iteration(result.posterior_trace),
        )
        return StrategyOutput(
            circles=circles,
            reports=[report],
            n_tasks=1,
            executor_kind=kind,
        )
