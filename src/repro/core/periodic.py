"""Periodic partitioning (§V) — the paper's primary contribution.

The sampler alternates:

1. a **global phase**: ``g`` iterations of ``Mg`` moves (birth, death,
   split, merge, replace) on the whole image, strictly sequential;
2. a **local phase**: the image is partitioned by a freshly randomised
   grid, features are classified modifiable/frozen per partition,
   ``l`` iterations of ``Ml`` moves (translate, resize) are allocated
   across partitions proportionally to modifiable-feature counts and
   executed concurrently, then the per-partition results are merged
   back into the master model.

Because phase lengths honour ``g = l·qg/(1−qg)`` and grid offsets are
re-randomised every cycle, the long-term move mix and spatial
treatment equal the conventional sampler's — the paper's argument for
statistical validity.  The sampler records wall-clock per component so
the Fig. 2 trade-off (phase length vs overhead) can be measured
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.imaging.image import Image
from repro.mcmc.chain import MarkovChain
from repro.mcmc.diagnostics import AcceptanceStats, Trace
from repro.mcmc.moves import MoveGenerator
from repro.mcmc.posterior import PosteriorState
from repro.mcmc.spec import ModelSpec, MoveConfig
from repro.core.partition_runner import (
    apply_local_phase_results,
    build_local_phase_tasks,
    run_local_phase_task,
)
from repro.core.phases import PhaseSchedule
from repro.mcmc.samples import SampleCollector
from repro.mcmc.speculative import SpeculativeChain
from repro.parallel.executor import Executor, SerialExecutor
from repro.parallel.sharedmem import set_worker_image
from repro.partitioning.allocation import allocate_iterations
from repro.partitioning.classify import classify_features
from repro.partitioning.grid import grid_partitions, single_point_partition
from repro.utils.rng import RngStream, SeedLike, coerce_stream
from repro.utils.timing import Stopwatch, TimingAccumulator

__all__ = [
    "PeriodicPartitioningSampler",
    "PeriodicResult",
    "single_point_partitioner",
    "grid_partitioner",
]

Partitioner = Callable[[Rect, RngStream], Sequence[Rect]]


def single_point_partitioner() -> Partitioner:
    """Fig. 2's scheme: one random interior point, four rectangles."""

    def partition(bounds: Rect, stream: RngStream) -> Sequence[Rect]:
        return single_point_partition(bounds, seed=stream).cells

    return partition


def grid_partitioner(spacing_x: float, spacing_y: float) -> Partitioner:
    """The general §V scheme: uniform grid with random offsets."""

    def partition(bounds: Rect, stream: RngStream) -> Sequence[Rect]:
        return grid_partitions(bounds, spacing_x, spacing_y, seed=stream).cells

    return partition


@dataclass
class PeriodicResult:
    """Outcome of a periodic-partitioning run."""

    iterations: int
    cycles: int
    elapsed_seconds: float
    timings: TimingAccumulator
    global_stats: AcceptanceStats
    local_stats: AcceptanceStats
    posterior_trace: Trace
    count_trace: Trace
    final_circles: List[Circle] = field(default_factory=list)
    #: speculative rounds executed in global phases (None when the
    #: global phases ran conventionally) — with *t* true threads, the
    #: eq. (3) wall clock of the global work would be rounds × τ_g
    #: instead of iterations × τ_g.
    global_rounds: Optional[int] = None
    #: speculative rounds consumed across all local-phase workers (None
    #: when local phases ran conventionally) — the eq. (4) analogue for
    #: the parallel term.
    local_rounds: Optional[int] = None

    @property
    def global_seconds(self) -> float:
        return self.timings.total("global_phase")

    @property
    def local_seconds(self) -> float:
        return self.timings.total("local_phase")

    @property
    def overhead_seconds(self) -> float:
        return self.timings.total("partition_overhead")


class PeriodicPartitioningSampler:
    """The §V sampler over a posterior state.

    Parameters
    ----------
    image, spec, move_config:
        The problem definition (same objects a sequential
        :class:`~repro.mcmc.chain.MarkovChain` would use).
    schedule:
        Phase lengths (see :class:`~repro.core.phases.PhaseSchedule`);
        its ``qg`` should match ``move_config.qg``.
    partitioner:
        Draws the cycle's partition cells; defaults to the Fig. 2
        single-point scheme.
    executor:
        Where local-phase tasks run.  The default serial executor gives
        the reference semantics; pass a
        :class:`~repro.parallel.process.ProcessExecutor` configured with
        the shared image for real parallelism.
    speculative_width:
        > 1 enables speculative execution of the *global* phases — the
        eq. (3) configuration.  The chain law is unchanged (at most one
        speculatively considered move applies per round); the result's
        ``global_rounds`` reports how many rounds the phase needed, from
        which eq. (3)'s wall clock follows.
    sample_collector:
        Optional :class:`~repro.mcmc.samples.SampleCollector` offered
        the state after every phase (post-convergence posterior
        summaries, §II's "samples at regular intervals").
    """

    def __init__(
        self,
        image: Image,
        spec: ModelSpec,
        move_config: MoveConfig,
        schedule: PhaseSchedule,
        partitioner: Optional[Partitioner] = None,
        executor: Optional[Executor] = None,
        seed: SeedLike = None,
        record_every: int = 100,
        speculative_width: int = 1,
        local_speculative_width: int = 1,
        sample_collector: Optional[SampleCollector] = None,
    ) -> None:
        if abs(schedule.qg - move_config.qg) > 1e-9:
            raise ConfigurationError(
                f"schedule qg={schedule.qg} disagrees with move_config qg="
                f"{move_config.qg}"
            )
        self.image = image
        self.spec = spec
        self.move_config = move_config
        self.schedule = schedule
        self.partitioner = partitioner or single_point_partitioner()
        self.executor = executor or SerialExecutor()
        self._owns_executor = executor is None
        root = coerce_stream(seed)
        self._global_stream = root.spawn_one()
        self._grid_stream = root.spawn_one()
        self._task_stream = root.spawn_one()

        if speculative_width < 1:
            raise ConfigurationError(
                f"speculative_width must be >= 1, got {speculative_width}"
            )
        if local_speculative_width < 1:
            raise ConfigurationError(
                f"local_speculative_width must be >= 1, got {local_speculative_width}"
            )
        self.speculative_width = speculative_width
        self.local_speculative_width = local_speculative_width
        self.sample_collector = sample_collector
        #: speculative rounds consumed by local-phase workers (eq. (4)'s
        #: modeled local wall clock is rounds × τ_l instead of
        #: iterations × τ_l when workers have t true threads each)
        self.local_rounds = 0

        self.post = PosteriorState(image, spec)
        self._global_gen = MoveGenerator(spec, move_config, mode="global")
        self._speculative_chain: Optional[SpeculativeChain] = None
        self._global_chain: Optional[MarkovChain] = None
        if speculative_width > 1:
            self._speculative_chain = SpeculativeChain(
                self.post, self._global_gen, width=speculative_width,
                seed=self._global_stream, record_every=record_every,
            )
        else:
            self._global_chain = MarkovChain(
                self.post, self._global_gen, seed=self._global_stream,
                record_every=record_every,
            )
        # Serial/thread executors run worker code in this process: give it
        # the image.  Process executors install theirs via the pool
        # initializer; this call is still correct for the master process.
        set_worker_image(image.pixels)

        self.record_every = record_every
        self.iterations_done = 0
        self.cycles_done = 0
        self.timings = TimingAccumulator()
        self.local_stats = AcceptanceStats()
        self.posterior_trace = Trace()
        self.count_trace = Trace()

    # -- phases -------------------------------------------------------------
    def run_global_phase(self, iterations: int) -> None:
        """``Mg`` iterations on the whole image — sequentially, or in
        speculative rounds when ``speculative_width > 1``."""
        watch = Stopwatch().start()
        if self._speculative_chain is not None:
            self._speculative_chain.run(iterations)
        else:
            self._global_chain.run(iterations)
        self.timings.add("global_phase", watch.stop())
        self.iterations_done += iterations
        if self.sample_collector is not None:
            self.sample_collector.offer(
                self.iterations_done, self.post.snapshot_circles()
            )

    def run_local_phase(self, iterations: int) -> None:
        """One partitioned ``Ml`` phase: partition, classify, allocate,
        execute, merge."""
        overhead_watch = Stopwatch().start()
        cells = list(self.partitioner(self.post.bounds, self._grid_stream))
        if not cells:
            raise ConfigurationError("partitioner returned no cells")
        plan = classify_features(self.post.config, cells, self.spec, self.move_config)
        allocations = allocate_iterations(iterations, plan.modifiable_counts())
        tasks = build_local_phase_tasks(
            self.post, plan, allocations, self.move_config, self._task_stream,
            speculative_width=self.local_speculative_width,
        )
        self.timings.add("partition_overhead", overhead_watch.stop())

        if tasks:
            run_watch = Stopwatch().start()
            results = self.executor.map(run_local_phase_task, tasks)
            self.timings.add("local_phase", run_watch.stop())

            merge_watch = Stopwatch().start()
            stats = apply_local_phase_results(self.post, results)
            self.local_stats.merge(stats)
            self.local_rounds += sum(r.rounds for r in results)
            self.timings.add("partition_overhead", merge_watch.stop())

        self.iterations_done += iterations
        if self.record_every and (
            self.iterations_done // self.record_every
            > (self.iterations_done - iterations) // self.record_every
        ):
            self.posterior_trace.record(self.iterations_done, self.post.log_posterior)
            self.count_trace.record(self.iterations_done, float(self.post.config.n))
        if self.sample_collector is not None:
            self.sample_collector.offer(
                self.iterations_done, self.post.snapshot_circles()
            )

    # -- driver ----------------------------------------------------------------
    def run(self, total_iterations: int) -> PeriodicResult:
        """Run complete cycles until *total_iterations* are consumed."""
        watch = Stopwatch().start()
        for g_iters, l_iters in self.schedule.cycles(total_iterations):
            if g_iters:
                self.run_global_phase(g_iters)
            if l_iters:
                self.run_local_phase(l_iters)
            self.cycles_done += 1
        elapsed = watch.stop()
        return PeriodicResult(
            iterations=self.iterations_done,
            cycles=self.cycles_done,
            elapsed_seconds=elapsed,
            timings=self.timings,
            global_stats=(
                self._speculative_chain.stats
                if self._speculative_chain is not None
                else self._global_chain.stats
            ),
            global_rounds=(
                self._speculative_chain.rounds
                if self._speculative_chain is not None
                else None
            ),
            local_rounds=(
                self.local_rounds if self.local_speculative_width > 1 else None
            ),
            local_stats=self.local_stats,
            posterior_trace=self.posterior_trace,
            count_trace=self.count_trace,
            final_circles=self.post.snapshot_circles(),
        )

    def close(self) -> None:
        """Shut down an internally created executor.

        Caller-supplied executors stay caller-owned (the engine wraps
        them in ``with``-blocks; see :mod:`repro.engine.executors`).
        """
        if self._owns_executor:
            self.executor.shutdown()

    def __enter__(self) -> "PeriodicPartitioningSampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
