"""Canonical benchmark workloads.

Each factory bundles a synthetic scene with the matching model and move
configuration.  Two track the paper's setups directly:

* :func:`fig2_workload` — §VII: "a 1024x1024 image containing 150 cells
  of mean radius 10", qg = 0.4 with 60 % local moves.  A ``scale``
  knob shrinks it proportionally (feature density preserved) so CI-
  sized runs exercise the same shape.
* :func:`bead_workload` — §IX / Fig. 3: a clumped bead image with one
  dominant clump (38 of 48 beads in the paper) and two minor ones,
  separated by empty gutters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.engine import (
    PAPER_MOVE_WEIGHTS,
    DetectionBatch,
    DetectionRequest,
    request_for_image,
    spawn_seeds,
)
from repro.errors import ConfigurationError
from repro.imaging.density import estimate_count
from repro.imaging.filters import threshold_filter
from repro.imaging.image import Image
from repro.imaging.synthetic import (
    Scene,
    SceneSpec,
    generate_bead_scene,
    generate_scene,
)
from repro.mcmc.spec import ModelSpec, MoveConfig
from repro.utils.rng import SeedLike

__all__ = [
    "Workload",
    "fig2_workload",
    "bead_workload",
    "small_nuclei_workload",
    "synthetic_workload",
    "workload_batch",
    "image_batch",
]


@dataclass
class Workload:
    """A scene plus everything needed to run MCMC on it."""

    name: str
    scene: Scene
    filtered: Image
    model: ModelSpec
    moves: MoveConfig
    threshold: float

    @property
    def n_truth(self) -> int:
        return self.scene.n_circles

    def request(
        self,
        strategy: str,
        iterations: int,
        executor="serial",
        n_workers: Optional[int] = None,
        seed: SeedLike = None,
        record_every: int = 50,
        options: Optional[dict] = None,
    ):
        """A :class:`~repro.engine.schema.DetectionRequest` for this
        workload — the bridge from benchmark setups to the unified
        engine.

        Fills in the workload's own threshold for strategies that
        pre-filter, and hands the periodic sampler the already-filtered
        image (the §VII setup).  Extra ``options`` override/extend the
        defaults.
        """
        opts = dict(options or {})
        if strategy in ("blind", "intelligent"):
            opts.setdefault("theta", self.threshold)
        return DetectionRequest(
            image=self.filtered if strategy == "periodic" else self.scene.image,
            spec=self.model,
            move_config=self.moves,
            iterations=iterations,
            strategy=strategy,
            executor=executor,
            n_workers=n_workers,
            seed=seed,
            record_every=record_every,
            options=opts,
        )


def _build(
    name: str,
    scene: Scene,
    threshold: float,
    radius_mean: float,
    radius_max_factor: float = 2.0,
) -> Workload:
    filtered = threshold_filter(scene.image, threshold)
    est = max(estimate_count(filtered, 0.5, radius_mean), 1.0)
    model = ModelSpec(
        width=scene.spec.width,
        height=scene.spec.height,
        expected_count=est,
        radius_mean=radius_mean,
        radius_std=scene.spec.radius_std,
        radius_min=max(scene.spec.min_radius, 1.0),
        radius_max=radius_mean * radius_max_factor,
    )
    return Workload(
        name=name,
        scene=scene,
        filtered=filtered,
        model=model,
        moves=MoveConfig(weights=dict(PAPER_MOVE_WEIGHTS)),
        threshold=threshold,
    )


def fig2_workload(scale: float = 1.0, seed: SeedLike = 1024) -> Workload:
    """The §VII workload at a given linear *scale*.

    ``scale=1`` is the paper's 1024×1024 / 150 cells; ``scale=0.25``
    gives 256×256 / ~9 cells at the same density... cell count scales
    with area so the per-pixel workload matches.
    """
    if not (0.05 <= scale <= 1.0):
        raise ConfigurationError(f"scale must be in [0.05, 1], got {scale}")
    size = max(64, int(round(1024 * scale)))
    n = max(4, int(round(150 * scale * scale)))
    scene = generate_scene(
        SceneSpec(
            width=size,
            height=size,
            n_circles=n,
            mean_radius=10.0,
            radius_std=1.5,
            min_radius=3.0,
            blur_sigma=1.0,
            noise_sigma=0.02,
        ),
        seed=seed,
    )
    return _build(f"fig2@{scale:g}", scene, threshold=0.4, radius_mean=10.0)


def bead_workload(
    scale: float = 1.0, n_beads: Optional[int] = None, seed: SeedLike = 348
) -> Workload:
    """The §IX bead image: three clumps, one dominant (the paper's
    visual counts: 6 / 38 / 4 of 48 beads).

    Bead *count* scales with area (so packing density inside a clump is
    scale-invariant), clump radius scales linearly with *scale* (so a
    clump of k ∝ scale² beads of fixed radius always fits at ~40 % area
    density).
    """
    if not (0.25 <= scale <= 2.0):
        raise ConfigurationError(f"scale must be in [0.25, 2], got {scale}")
    mean_radius = 8.0
    n = n_beads if n_beads is not None else max(6, int(round(48 * scale * scale)))
    # Size the dominant clump for ~40% bead area density, then size the
    # image so three clumps plus gutters fit along the x axis.
    dominant = max(2.0, n * 38.0 / 48.0)
    clump_r = mean_radius * math.sqrt(dominant / 0.4)
    gutter = max(20.0, 40.0 * scale)
    pad = clump_r + mean_radius + 4.0
    need = 3 * 2 * pad + 2 * gutter
    width = int(math.ceil(1.15 * need))
    height = max(int(round(2 * pad + 20)), int(round(0.6 * width)))
    scene = generate_bead_scene(
        SceneSpec(
            width=width,
            height=height,
            n_circles=n,
            mean_radius=mean_radius,
            radius_std=0.8,  # "very little variation in the radii of the latex beads"
            min_radius=4.0,
            blur_sigma=0.8,
            noise_sigma=0.015,
        ),
        n_clumps=3,
        clump_radius_factor=clump_r / mean_radius,
        gutter=gutter,
        clump_weights=[6, 38, 4],
        seed=seed,
    )
    return _build(f"beads@{scale:g}", scene, threshold=0.5, radius_mean=mean_radius)


def small_nuclei_workload(seed: SeedLike = 7) -> Workload:
    """A 192×192 / 15-cell scene for tests and quick examples."""
    scene = generate_scene(
        SceneSpec(
            width=192, height=192, n_circles=15, mean_radius=8.0,
            radius_std=1.2, min_radius=3.0,
        ),
        seed=seed,
    )
    return _build("small-nuclei", scene, threshold=0.4, radius_mean=8.0)


def synthetic_workload(
    size: int = 128,
    n_circles: int = 10,
    mean_radius: float = 8.0,
    threshold: float = 0.4,
    seed: SeedLike = 0,
) -> Workload:
    """A parameterised nuclei scene — the `repro detect` CLI's workload
    factory, also handy for sizing quick experiments by hand."""
    scene = generate_scene(
        SceneSpec(
            width=size, height=size, n_circles=n_circles,
            mean_radius=mean_radius,
        ),
        seed=seed,
    )
    return _build(
        f"synthetic-{size}x{size}", scene,
        threshold=threshold, radius_mean=mean_radius,
    )


# -- batch bridges ------------------------------------------------------------

def workload_batch(
    workloads,
    strategy: str,
    iterations: int,
    executor="serial",
    n_workers: Optional[int] = None,
    seed: SeedLike = None,
    record_every: int = 50,
    options: Optional[dict] = None,
):
    """A :class:`~repro.engine.schema.DetectionBatch` over *workloads*.

    The bridge from benchmark setups to the engine's batch layer
    (:func:`repro.engine.run_batch`): one request per workload via
    :meth:`Workload.request`, with per-workload seeds spawned
    deterministically from *seed* in workload order — so every derived
    request is individually reproducible, cacheable, and bit-identical
    to the same request run outside the batch.
    """
    workloads = list(workloads)
    children = spawn_seeds(seed, len(workloads))
    return DetectionBatch(requests=[
        w.request(
            strategy,
            iterations=iterations,
            executor=executor,
            n_workers=n_workers,
            seed=child,
            record_every=record_every,
            options=options,
        )
        for w, child in zip(workloads, children)
    ])


def image_batch(
    images,
    strategy: str,
    iterations: int,
    threshold: float = 0.4,
    radius_mean: float = 8.0,
    executor="serial",
    n_workers: Optional[int] = None,
    seed: SeedLike = None,
    record_every: int = 50,
    options: Optional[dict] = None,
):
    """A batch over raw :class:`~repro.imaging.image.Image` objects —
    e.g. PGM files read from disk (``repro detect --batch DIR``).

    Each image gets its own model spec: the expected count is estimated
    from its thresholded foreground (the same §VIII prior-allocation
    step the canonical workloads use), dimensions from the image.
    Strategies that pre-filter get the *threshold* as their ``theta``;
    the periodic strategy receives the already-filtered image, matching
    :meth:`Workload.request` semantics.
    """
    images = list(images)
    children = spawn_seeds(seed, len(images))
    return DetectionBatch(requests=[
        request_for_image(
            image,
            strategy,
            iterations=iterations,
            threshold=threshold,
            radius_mean=radius_mean,
            executor=executor,
            n_workers=n_workers,
            seed=child,
            record_every=record_every,
            options=options,
        )
        for image, child in zip(images, children)
    ])
