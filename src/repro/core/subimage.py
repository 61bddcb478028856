"""Independent sub-image MCMC tasks.

The intelligent, blind and naive pipelines all reduce to the same unit
of work: run a complete RJMCMC chain over one rectangular region of the
image, with that region's own prior knowledge, and return the fitted
circles (in global coordinates) plus diagnostics.  This module defines
that unit as a picklable task + a module-level worker function, so the
same code runs on every executor.

The worker reads pixels from the per-process image installed by
:mod:`repro.parallel.sharedmem` — task messages carry geometry and
parameters only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


from repro.errors import PartitioningError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.imaging.image import Image
from repro.mcmc.chain import MarkovChain
from repro.mcmc.diagnostics import AcceptanceStats, Trace, convergence_iteration
from repro.mcmc.moves import MoveGenerator
from repro.mcmc.posterior import PosteriorState
from repro.mcmc.spec import ModelSpec, MoveConfig
from repro.parallel.sharedmem import get_worker_image
from repro.utils.rng import RngStream
from repro.utils.timing import Stopwatch

__all__ = ["SubImageTask", "SubImageResult", "run_subimage_task"]


@dataclass(frozen=True)
class SubImageTask:
    """One partition's complete MCMC problem.

    Attributes
    ----------
    rect:
        Region (global image coordinates) as an (x0, y0, x1, y1) tuple
        — kept primitive so the message pickles small and fast.
    spec:
        Model spec for the sub-problem: ``width``/``height`` match the
        region's pixel window and ``expected_count`` holds the
        partition's own prior estimate (eq. (5)).
    move_config:
        Proposal mechanics.
    iterations:
        Chain length.
    seed:
        Integer entropy for the worker's private stream.
    record_every:
        Trace stride (posterior + count traces are returned for
        convergence measurement).
    """

    rect: Tuple[float, float, float, float]
    spec: ModelSpec
    move_config: MoveConfig
    iterations: int
    seed: int
    record_every: int = 50


@dataclass
class SubImageResult:
    """Worker's answer for one sub-image."""

    rect: Tuple[float, float, float, float]
    circles: List[Circle] = field(default_factory=list)
    iterations: int = 0
    elapsed_seconds: float = 0.0
    stats: AcceptanceStats = field(default_factory=AcceptanceStats)
    posterior_trace: Trace = field(default_factory=Trace)
    count_trace: Trace = field(default_factory=Trace)

    @property
    def seconds_per_iteration(self) -> float:
        return self.elapsed_seconds / self.iterations if self.iterations else 0.0

    def convergence_iteration(self, **kwargs) -> Optional[int]:
        """Where the posterior trace settles (see
        :func:`repro.mcmc.diagnostics.convergence_iteration`)."""
        return convergence_iteration(self.posterior_trace, **kwargs)


def run_subimage_task(task: SubImageTask) -> SubImageResult:
    """Execute one sub-image chain against the installed worker image."""
    pixels = get_worker_image()
    rect = Rect(*task.rect)
    rows, cols = rect.pixel_slices()
    patch = pixels[rows, cols]
    if patch.size == 0:
        raise PartitioningError(f"sub-image rect {rect} covers no pixels")
    if patch.shape != (task.spec.height, task.spec.width):
        raise PartitioningError(
            f"task spec says {task.spec.height}x{task.spec.width} but rect "
            f"{rect} yields {patch.shape}"
        )

    post = PosteriorState(
        Image(patch),
        task.spec,
        row_offset=rows.start,
        col_offset=cols.start,
        bounds=rect,
    )
    gen = MoveGenerator(task.spec, task.move_config, mode="full")
    chain = MarkovChain(
        post, gen, seed=RngStream(task.seed), record_every=task.record_every
    )
    watch = Stopwatch().start()
    chain.run(task.iterations)
    elapsed = watch.stop()

    return SubImageResult(
        rect=task.rect,
        circles=post.snapshot_circles(),
        iterations=task.iterations,
        elapsed_seconds=elapsed,
        stats=chain.stats,
        posterior_trace=chain.posterior_trace,
        count_trace=chain.count_trace,
    )


def make_subimage_task(
    rect: Rect,
    base_spec: ModelSpec,
    move_config: MoveConfig,
    expected_count: float,
    iterations: int,
    seed: int,
    record_every: int = 50,
) -> SubImageTask:
    """Build a task for *rect*, deriving the sub-spec from *base_spec*.

    The sub-spec keeps every model parameter except the image dimensions
    (set to the region's pixel window) and the expected count (the
    region's own estimate — the §VIII prior-allocation step).
    """
    rows, cols = rect.pixel_slices()
    height = rows.stop - rows.start
    width = cols.stop - cols.start
    if height <= 0 or width <= 0:
        raise PartitioningError(f"rect {rect} covers no pixel centres")
    sub_spec = base_spec.with_bounds(width, height).with_expected_count(
        max(expected_count, 0.5)
    )
    return SubImageTask(
        rect=(rect.x0, rect.y0, rect.x1, rect.y1),
        spec=sub_spec,
        move_config=move_config,
        iterations=iterations,
        seed=seed,
        record_every=record_every,
    )
