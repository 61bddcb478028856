"""Request/result schema shared by every detection strategy.

A :class:`DetectionRequest` is the one message every strategy accepts:
the image, the Bayesian model, the proposal mechanics, an iteration
budget, a seed, and an executor choice.  A :class:`DetectionResult` is
the one answer every strategy returns: the fitted circles, a list of
per-partition :class:`PartitionReport` rows, wall-clock, and — for
blind partitioning — the §IX merge accounting (:class:`MergeCounts`).
Every field is plain data that survives
:func:`repro.engine.cache.result_to_json`, so a result has one shape
whichever cache tier or transport delivered it.

A :class:`DetectionBatch` carries N requests through one engine
invocation (:func:`repro.engine.run_batch`) sharing a single executor
pool; :func:`request_key` reduces a request to a content-addressed
digest — image bytes + strategy + model + moves + seed + options — so a
result cache can recognise identical work across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.imaging.density import estimate_count
from repro.imaging.filters import threshold_filter
from repro.imaging.image import Image
from repro.mcmc.spec import ModelSpec, MoveConfig, MoveType
from repro.parallel.executor import Executor
from repro.utils.rng import SeedLike

__all__ = [
    "EXECUTOR_CHOICES",
    "DetectionRequest",
    "PAPER_MOVE_WEIGHTS",
    "request_for_image",
    "DetectionResult",
    "DetectionBatch",
    "BatchItemResult",
    "BatchResult",
    "PartitionReport",
    "MergeCounts",
    "TilePlan",
    "StrategyOutput",
    "DetectionEvent",
    "TilePlannedEvent",
    "PartitionResultEvent",
    "ResultEvent",
    "image_digest",
    "request_key",
    "snapshot_seed",
    "spawn_seeds",
]

#: Executor names a request may carry (besides a live Executor instance).
EXECUTOR_CHOICES = ("auto", "serial", "thread", "process")


@dataclass
class DetectionRequest:
    """Everything a strategy needs to run a detection workload.

    Attributes
    ----------
    image:
        The full input image (strategies that pre-filter do so
        themselves, controlled by ``options["theta"]``).
    spec, move_config:
        The Bayesian model and proposal mechanics — the same objects a
        sequential :class:`~repro.mcmc.chain.MarkovChain` would use.
    iterations:
        Chain budget.  Tiled strategies (naive/blind/intelligent) read
        it as iterations *per partition*; the periodic strategy reads it
        as the *total* iteration count.
    strategy:
        Registry name (see :func:`repro.engine.available_strategies`).
    executor:
        ``"serial"``, ``"thread"``, ``"process"``, ``"auto"``/``None``
        (pick by task count), or a live :class:`Executor` — a live
        instance is used as-is and its lifecycle stays with the caller;
        string choices are constructed, context-managed, and shut down
        by the engine.
    n_workers:
        Pool size for thread/process executors (default: min(task
        count, CPU count)).
    seed:
        Seed for the run's root RNG stream; per-partition chains derive
        private integer seeds from it in partition order.
    record_every:
        Trace stride handed to the per-partition chains.
    options:
        Strategy-specific knobs (e.g. ``nx``/``ny`` for grid
        strategies, ``theta``/``min_gap`` for intelligent,
        ``local_iters`` for periodic).  Unknown keys are an error so
        typos do not silently fall back to defaults.
    """

    image: Image
    spec: ModelSpec
    move_config: MoveConfig
    iterations: int
    strategy: str = "intelligent"
    executor: Union[str, Executor, None] = None
    n_workers: Optional[int] = None
    seed: SeedLike = None
    record_every: int = 50
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ConfigurationError(
                f"iterations must be positive, got {self.iterations}"
            )
        if self.record_every <= 0:
            raise ConfigurationError(
                f"record_every must be positive, got {self.record_every}"
            )
        if isinstance(self.executor, str) and self.executor not in EXECUTOR_CHOICES:
            raise ConfigurationError(
                f"executor must be one of {EXECUTOR_CHOICES} or an Executor "
                f"instance, got {self.executor!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )

    def option(self, key: str, default: Any = None) -> Any:
        return self.options.get(key, default)


#: Move weights realising the paper's §VII setup: qg = 0.4 with the five
#: global move types, 60 % of proposals local.
PAPER_MOVE_WEIGHTS = {
    MoveType.BIRTH: 0.10,
    MoveType.DEATH: 0.10,
    MoveType.SPLIT: 0.06,
    MoveType.MERGE: 0.06,
    MoveType.REPLACE: 0.08,
    MoveType.TRANSLATE: 0.30,
    MoveType.RESIZE: 0.30,
}


def request_for_image(
    image: Image,
    strategy: str,
    iterations: int,
    threshold: float = 0.4,
    radius_mean: float = 8.0,
    executor="serial",
    n_workers: Optional[int] = None,
    seed: SeedLike = None,
    record_every: int = 50,
    options: Optional[dict] = None,
) -> DetectionRequest:
    """A :class:`DetectionRequest` for one raw
    :class:`~repro.imaging.image.Image` — e.g. a PGM read from disk.

    The model spec is derived from the image itself: expected count from
    its thresholded foreground (the §VIII prior-allocation step),
    dimensions from the image.  Strategies that pre-filter get
    *threshold* as their ``theta``; the periodic strategy receives the
    already-filtered image — the same semantics as
    :meth:`repro.bench.workloads.Workload.request`.  This is the one
    definition ``repro detect --image``, ``--batch``
    (:func:`repro.bench.workloads.image_batch`), and the detection
    service's PGM/pixel job specs share.
    """
    filtered = threshold_filter(image, threshold)
    est = max(estimate_count(filtered, 0.5, radius_mean), 1.0)
    model = ModelSpec(
        width=image.width,
        height=image.height,
        expected_count=est,
        radius_mean=radius_mean,
        radius_min=max(1.0, radius_mean / 4.0),
        radius_max=radius_mean * 2.0,
    )
    opts = dict(options or {})
    if strategy in ("blind", "intelligent"):
        opts.setdefault("theta", threshold)
    return DetectionRequest(
        image=filtered if strategy == "periodic" else image,
        spec=model,
        move_config=MoveConfig(weights=dict(PAPER_MOVE_WEIGHTS)),
        iterations=iterations,
        strategy=strategy,
        executor=executor,
        n_workers=n_workers,
        seed=seed,
        record_every=record_every,
        options=opts,
    )


@dataclass(frozen=True)
class PartitionReport:
    """One partition's facts, identical in shape for every strategy.

    ``converged_at`` is the iteration at which the partition chain's
    posterior trace settles (Table I's "# itr converge";
    :func:`repro.mcmc.diagnostics.convergence_iteration`), ``None`` when
    it never does.
    """

    rect: Rect
    expected_count: float
    n_found: int
    iterations: int
    elapsed_seconds: float
    converged_at: Optional[int]

    @property
    def seconds_per_iteration(self) -> float:
        return self.elapsed_seconds / self.iterations if self.iterations else 0.0


@dataclass(frozen=True)
class TilePlan:
    """One planned sub-image chain: region + its prior count estimate."""

    rect: Rect
    expected_count: float


@dataclass(frozen=True)
class MergeCounts:
    """The §IX blind-merge accounting: the counters of a
    :class:`~repro.partitioning.merge.MergeReport`, without its circles
    (those are the result's own)."""

    n_auto_accepted: int
    n_merged: int
    n_corroborated: int
    n_disputed_kept: int
    n_disputed_dropped: int
    n_rescued: int


@dataclass
class StrategyOutput:
    """What a strategy hands back to the engine driver."""

    circles: List[Circle]
    reports: List[PartitionReport]
    n_tasks: int
    executor_kind: str
    merge: Optional[MergeCounts] = None


@dataclass
class DetectionResult:
    """Engine-level answer, common to all strategies.

    ``merge`` is the blind strategy's :class:`MergeCounts`; it is
    ``None`` for strategies that do not reconcile overlapping models.
    """

    strategy: str
    circles: List[Circle]
    reports: List[PartitionReport]
    elapsed_seconds: float
    executor_kind: str
    n_tasks: int
    merge: Optional[MergeCounts] = None

    @property
    def n_found(self) -> int:
        return len(self.circles)

    @property
    def n_partitions(self) -> int:
        return len(self.reports)


# -- streaming events ----------------------------------------------------------

@dataclass(frozen=True)
class TilePlannedEvent:
    """The estimation phase produced one tile: its chain is now dispatched.

    Emitted by the streaming path (:func:`repro.engine.run_stream`) the
    moment a partition's region and prior count estimate exist — i.e.
    while other partitions' chains may already be running, which is the
    estimation/execution overlap the ``AsyncExecutor`` buys.
    """

    index: int
    rect: Rect
    expected_count: float


@dataclass(frozen=True)
class PartitionResultEvent:
    """One partition's chain finished: its result fragment, pre-merge.

    ``circles`` are the fragment's fitted circles in global coordinates
    (for tiled strategies, the raw per-partition model before the
    strategy's merge step; for single-partition strategies, the final
    model).  ``n_tasks`` is the total the consumer should expect, or
    ``None`` while planning is still discovering partitions.
    """

    index: int
    report: PartitionReport
    circles: List[Circle]
    n_tasks: Optional[int] = None


@dataclass(frozen=True)
class ResultEvent:
    """Terminal event: the merged, engine-level result."""

    result: DetectionResult


#: Everything :func:`repro.engine.run_stream` may yield.
DetectionEvent = Union[TilePlannedEvent, PartitionResultEvent, ResultEvent]


# -- canonical request hashing -------------------------------------------------

def image_digest(image: Image) -> str:
    """SHA-256 over the image's shape and raw float64 pixel bytes.

    Two images hash equal iff they are pixel-for-pixel identical, which
    is the only equality a bit-identical result cache may rely on.
    """
    h = hashlib.sha256()
    h.update(repr(image.shape).encode("ascii"))
    h.update(image.pixels.tobytes())
    return h.hexdigest()


def spawn_seeds(seed: SeedLike, n: int) -> List[np.random.SeedSequence]:
    """*n* per-item seeds derived deterministically from *seed*.

    The one definition of batch seed semantics: children of
    ``SeedSequence(seed)`` in item order, so the i-th item of a batch
    gets the same (individually reproducible, cacheable) seed no matter
    which bridge built the batch — :meth:`DetectionBatch.from_images`,
    :func:`repro.bench.workloads.workload_batch`, or
    :func:`repro.bench.workloads.image_batch`.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return root.spawn(n)


def snapshot_seed(seed: SeedLike) -> SeedLike:
    """A copy of *seed* whose consumption cannot leak back to the caller.

    ``SeedSequence.spawn`` mutates ``n_children_spawned``, so a strategy
    that spawns per-partition streams (the periodic sampler does) would
    make the *same request object* produce different results on a
    second run — breaking both the engine's "requests are value
    objects" contract and result caching.  The engine therefore runs
    against a state-snapshot of the seed.  Integers are immutable and
    pass through; generators/streams pass through unchanged — they are
    deliberately stateful (and uncacheable, see :func:`request_key`).
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy,
            spawn_key=tuple(seed.spawn_key),
            pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned,
        )
    return seed


def _canonical_seed(seed: SeedLike) -> Optional[str]:
    """A stable string for *seed*, or ``None`` when the seed cannot
    identify a reproducible run.

    Plain integers and :class:`~numpy.random.SeedSequence` objects fully
    determine the derived streams.  ``None`` (OS entropy), live
    generators, and :class:`~repro.utils.rng.RngStream` instances carry
    consumed state that a hash of their construction-time identity would
    not capture, so requests seeded with them are uncacheable.
    """
    if isinstance(seed, (bool, np.bool_)):  # bools are ints; reject explicitly
        return None
    if isinstance(seed, (int, np.integer)):
        return f"int:{int(seed)}"
    if isinstance(seed, np.random.SeedSequence):
        return (
            f"seq:{seed.entropy}:{tuple(seed.spawn_key)}:"
            f"{seed.n_children_spawned}"
        )
    return None


def _jsonable(value: Any) -> Any:
    """Reduce *value* to deterministic JSON-compatible data, or raise
    ``TypeError`` when it has no canonical form (callables, arrays...)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def request_key(request: DetectionRequest) -> Optional[str]:
    """Content-addressed digest of *request*, or ``None`` if uncacheable.

    The key covers everything that determines the engine's output —
    image bytes, strategy name, iteration budget, trace stride, seed,
    the full model spec, the move configuration, and the strategy
    options — and deliberately excludes what provably does not
    (executor choice and worker count; the engine guarantees identical
    results across executors for a fixed seed).

    Returns ``None`` when the request cannot name a reproducible run: a
    ``None``/generator/stream seed, or options carrying non-serialisable
    values (e.g. the periodic strategy's ``partitioner`` callable).
    """
    seed = _canonical_seed(request.seed)
    if seed is None:
        return None
    try:
        options = _jsonable(request.options)
    except TypeError:
        return None
    spec = request.spec
    moves = request.move_config
    canonical = {
        "image": image_digest(request.image),
        "strategy": request.strategy,
        "iterations": request.iterations,
        "record_every": request.record_every,
        "seed": seed,
        "spec": {
            "width": spec.width,
            "height": spec.height,
            "expected_count": spec.expected_count,
            "radius_mean": spec.radius_mean,
            "radius_std": spec.radius_std,
            "radius_min": spec.radius_min,
            "radius_max": spec.radius_max,
            "overlap_gamma": spec.overlap_gamma,
            "likelihood_beta": spec.likelihood_beta,
            "foreground": spec.foreground,
            "background": spec.background,
        },
        "moves": {
            "weights": {mt.value: w for mt, w in moves.weights.items()},
            "translate_step": moves.translate_step,
            "resize_step": moves.resize_step,
            "split_max_separation": moves.split_max_separation,
            "proposal_batch": moves.proposal_batch,
        },
        "options": options,
    }
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- batch request/result ------------------------------------------------------

@dataclass
class DetectionBatch:
    """N detection requests run as one engine invocation.

    The batch layer's contract (:func:`repro.engine.run_batch`): results
    are bit-identical to running each request through :func:`run`
    independently, but executor start-up (thread/process pool creation,
    shared-memory setup) is paid once and amortised across the batch,
    and a :class:`~repro.engine.cache.ResultCache` can skip requests
    whose :func:`request_key` it has already seen.

    Build one from explicit requests, or from N images sharing one
    model/move/strategy setup via :meth:`from_images` (per-image seeds
    are spawned deterministically from the batch seed, so every derived
    request is individually reproducible and cacheable).
    """

    requests: List[DetectionRequest]

    def __post_init__(self) -> None:
        if not self.requests:
            raise ConfigurationError("a DetectionBatch needs at least one request")

    def __len__(self) -> int:
        return len(self.requests)

    @classmethod
    def from_images(
        cls,
        images: List[Image],
        spec: ModelSpec,
        move_config: MoveConfig,
        iterations: int,
        strategy: str = "intelligent",
        executor: Union[str, Executor, None] = None,
        n_workers: Optional[int] = None,
        seed: SeedLike = None,
        record_every: int = 50,
        options: Optional[Dict[str, Any]] = None,
    ) -> "DetectionBatch":
        """One request per image, all sharing the same model and knobs.

        Per-image seeds are children of ``SeedSequence(seed)`` in image
        order — deterministic for an integer *seed*, and identical to
        what a caller doing the same spawn by hand would pass to N
        independent :func:`run` calls.
        """
        if not images:
            raise ConfigurationError("a DetectionBatch needs at least one image")
        children = spawn_seeds(seed, len(images))
        return cls(requests=[
            DetectionRequest(
                image=image,
                spec=spec,
                move_config=move_config,
                iterations=iterations,
                strategy=strategy,
                executor=executor,
                n_workers=n_workers,
                seed=child,
                record_every=record_every,
                options=dict(options or {}),
            )
            for image, child in zip(images, children)
        ])


@dataclass
class BatchItemResult:
    """One request's outcome inside a batch."""

    request: DetectionRequest
    result: DetectionResult
    key: Optional[str]
    cached: bool


@dataclass
class BatchResult:
    """The batch-level answer: per-item results plus amortisation facts."""

    items: List[BatchItemResult]
    elapsed_seconds: float
    executor_kind: str

    @property
    def results(self) -> List[DetectionResult]:
        return [item.result for item in self.items]

    @property
    def n_cached(self) -> int:
        return sum(1 for item in self.items if item.cached)

    @property
    def n_computed(self) -> int:
        return len(self.items) - self.n_cached
