"""Local-phase execution across partitions (§V's ``Ml`` phases).

The master (the periodic sampler) classifies features against the
cycle's partition grid, allocates iterations, and builds one
:class:`LocalPhaseTask` per non-empty partition.  Workers run a
local-move-only chain over their partition patch — modifiable features
mutable, frozen features visible read-only — and return the final
coordinates of the modifiable features.  The master then replays the
coordinate changes onto its own posterior state with the incremental
primitives, so the master's cached log-posterior stays exact without
any full recomputation.

Why replaying is sound: local moves never change the feature count, and
the safety margin guarantees a worker's accepted moves touch only
pixels and neighbour pairs inside its own partition, so per-feature
final coordinates compose across partitions without interaction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


from repro.errors import PartitioningError
from repro.geometry.rect import Rect
from repro.imaging.image import Image
from repro.mcmc.chain import MarkovChain
from repro.mcmc.coverage import CoverageRaster
from repro.mcmc.diagnostics import AcceptanceStats
from repro.mcmc.moves import MoveGenerator
from repro.mcmc.posterior import PosteriorState
from repro.mcmc.spec import ModelSpec, MoveConfig
from repro.parallel.sharedmem import get_worker_image
from repro.partitioning.classify import PartitionPlan
from repro.utils.rng import RngStream

__all__ = [
    "LocalPhaseTask",
    "LocalPhaseResult",
    "run_local_phase_task",
    "build_local_phase_tasks",
    "apply_local_phase_results",
]

#: Per-thread cache of one scratch-warmed CoverageRaster per worker.
#: Local-phase tasks arrive every cycle with similar patch sizes, so
#: reusing a raster (counts plane + trial scratch, all grown to
#: the high-water mark) removes the per-task allocation burst.  Keyed
#: per thread: serial and thread executors share this process, process
#: executors each get their own module copy — all cases are race-free.
_worker_state = threading.local()


def _acquire_worker_raster(height: int, width: int) -> CoverageRaster:
    """The calling thread's cached raster (created on first use).

    The caller hands it to :class:`PosteriorState` via ``coverage=``,
    which resets it to the task's window and offsets.
    """
    raster: Optional[CoverageRaster] = getattr(_worker_state, "raster", None)
    if raster is None:
        raster = CoverageRaster(height, width)
        _worker_state.raster = raster
    return raster


@dataclass(frozen=True)
class LocalPhaseTask:
    """One partition's share of a local phase (picklable, array-based)."""

    rect: Tuple[float, float, float, float]
    margin: float
    iterations: int
    seed: int
    spec: ModelSpec
    move_config: MoveConfig
    #: master indices of the modifiable features (returned unchanged)
    mod_ids: Tuple[int, ...]
    #: geometry of modifiable features, parallel to mod_ids
    mod_xs: Tuple[float, ...]
    mod_ys: Tuple[float, ...]
    mod_rs: Tuple[float, ...]
    #: geometry of frozen context features (read-only in the worker)
    frz_xs: Tuple[float, ...] = ()
    frz_ys: Tuple[float, ...] = ()
    frz_rs: Tuple[float, ...] = ()
    #: > 1 runs the partition's chain in speculative rounds (the eq. (4)
    #: configuration: every cluster machine also speculates with its
    #: *t* threads); the chain law is unchanged.
    speculative_width: int = 1


@dataclass
class LocalPhaseResult:
    """Final modifiable-feature geometry after the partition's chain."""

    mod_ids: Tuple[int, ...]
    xs: List[float]
    ys: List[float]
    rs: List[float]
    iterations: int
    stats: AcceptanceStats = field(default_factory=AcceptanceStats)
    #: speculative rounds used (== iterations when width is 1)
    rounds: int = 0


def run_local_phase_task(task: LocalPhaseTask) -> LocalPhaseResult:
    """Worker body: local-move MCMC restricted to one partition."""
    pixels = get_worker_image()
    rect = Rect(*task.rect)
    rows, cols = rect.pixel_slices()
    patch = pixels[rows, cols]
    if patch.size == 0:
        raise PartitioningError(f"partition rect {rect} covers no pixels")

    post = PosteriorState(
        Image(patch),
        task.spec,
        row_offset=rows.start,
        col_offset=cols.start,
        bounds=Rect(0.0, 0.0, float(task.spec.width), float(task.spec.height)),
        coverage=_acquire_worker_raster(patch.shape[0], patch.shape[1]),
    )
    # Load modifiable features first so their local indices are 0..k-1,
    # then the frozen context.  The cache is left at an arbitrary offset
    # (resync skipped): only deltas matter for accept/reject, and a full
    # recomputation per phase would dominate the phase's useful work.
    local_ids: List[int] = []
    for x, y, r in zip(task.mod_xs, task.mod_ys, task.mod_rs):
        idx = post.config.add(float(x), float(y), float(r))
        post.likelihood.add_disc_delta(post.coverage, float(x), float(y), float(r))
        local_ids.append(idx)
    for x, y, r in zip(task.frz_xs, task.frz_ys, task.frz_rs):
        post.config.add(float(x), float(y), float(r))
        post.likelihood.add_disc_delta(post.coverage, float(x), float(y), float(r))
    post.set_log_posterior(0.0)

    gen = MoveGenerator(
        task.spec,
        task.move_config,
        mode="local",
        allowed_indices=local_ids,
        constraint=(rect, task.margin),
    )
    if task.speculative_width > 1:
        from repro.mcmc.speculative import SpeculativeChain

        spec_chain = SpeculativeChain(
            post, gen, width=task.speculative_width, seed=RngStream(task.seed),
            record_every=max(1, task.iterations),
        )
        spec_chain.run(task.iterations)
        stats = spec_chain.stats
        rounds = spec_chain.rounds
    else:
        chain = MarkovChain(
            post, gen, seed=RngStream(task.seed),
            record_every=max(1, task.iterations),
        )
        chain.run(task.iterations)
        stats = chain.stats
        rounds = task.iterations

    xs = [float(post.config.xs[i]) for i in local_ids]
    ys = [float(post.config.ys[i]) for i in local_ids]
    rs = [float(post.config.rs[i]) for i in local_ids]
    return LocalPhaseResult(
        mod_ids=task.mod_ids,
        xs=xs,
        ys=ys,
        rs=rs,
        iterations=task.iterations,
        stats=stats,
        rounds=rounds,
    )


def build_local_phase_tasks(
    post: PosteriorState,
    plan: PartitionPlan,
    allocations: Sequence[int],
    move_config: MoveConfig,
    stream: RngStream,
    speculative_width: int = 1,
) -> List[LocalPhaseTask]:
    """Materialise tasks for every partition with work to do.

    Each task receives an independent child seed so results do not
    depend on executor scheduling order.
    """
    if len(allocations) != len(plan.partitions):
        raise PartitioningError(
            f"{len(allocations)} allocations for {len(plan.partitions)} partitions"
        )
    seeds = stream.spawn(len(plan.partitions))
    tasks: List[LocalPhaseTask] = []
    cfg = post.config
    for ctx, alloc, seed in zip(plan.partitions, allocations, seeds):
        if alloc <= 0 or not ctx.modifiable:
            continue
        frozen = ctx.frozen
        tasks.append(
            LocalPhaseTask(
                rect=(ctx.rect.x0, ctx.rect.y0, ctx.rect.x1, ctx.rect.y1),
                margin=plan.margin,
                iterations=int(alloc),
                seed=_entropy_int(seed),
                spec=post.spec,
                move_config=move_config,
                speculative_width=speculative_width,
                mod_ids=tuple(int(i) for i in ctx.modifiable),
                mod_xs=tuple(float(cfg.xs[i]) for i in ctx.modifiable),
                mod_ys=tuple(float(cfg.ys[i]) for i in ctx.modifiable),
                mod_rs=tuple(float(cfg.rs[i]) for i in ctx.modifiable),
                frz_xs=tuple(float(cfg.xs[i]) for i in frozen),
                frz_ys=tuple(float(cfg.ys[i]) for i in frozen),
                frz_rs=tuple(float(cfg.rs[i]) for i in frozen),
            )
        )
    return tasks


def _entropy_int(stream: RngStream) -> int:
    """A 63-bit seed integer derived from a child stream."""
    return int(stream.rng.integers(0, 2**63 - 1))


def apply_local_phase_results(
    post: PosteriorState,
    results: Sequence[LocalPhaseResult],
    position_tol: float = 0.0,
) -> AcceptanceStats:
    """Replay workers' final coordinates onto the master posterior.

    Only features whose geometry actually changed incur incremental
    updates.  Returns the merged acceptance statistics of all workers.
    """
    merged = AcceptanceStats()
    for res in results:
        merged.merge(res.stats)
        for mid, x, y, r in zip(res.mod_ids, res.xs, res.ys, res.rs):
            ox, oy = post.config.position_of(mid)
            if abs(ox - x) > position_tol or abs(oy - y) > position_tol:
                post.move_circle(mid, x, y)
            if abs(post.config.radius_of(mid) - r) > position_tol:
                post.resize_circle(mid, r)
    return merged
