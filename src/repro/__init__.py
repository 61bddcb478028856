"""repro — reproduction of *On the Parallelisation of MCMC-based Image
Processing* (Byrd, Jarvis, Bhalerao; IEEE IPDPS Workshops 2010).

The library implements the paper's case study (reversible-jump MCMC
detection of circular artifacts in images) and all four of its
contributions:

* **periodic partitioning** (`repro.core.periodic`) — statistically
  valid data-parallel MCMC via alternating global/local move phases;
* the **runtime prediction model** (`repro.core.theory`, eqs. 2–4);
* **intelligent** and **blind image partitioning**
  (`repro.engine.strategies`) — aggressive, not-statistically-pure
  divide and conquer;
* **speculative moves** (`repro.mcmc.speculative`, the companion
  method of ref. [11]) and the **(MC)³** related-work baseline
  (`repro.mcmc.mc3`).

All four partitioning strategies run under one engine
(`repro.engine`): one `DetectionRequest`/`DetectionResult` schema, a
strategy registry (`@register_strategy`), engine-owned executor
lifecycle, and a `repro detect --strategy ... --executor ...` CLI.

Quick start::

    from repro import quickstart_detect
    scene, found, report = quickstart_detect(seed=0)
    print(report.f1)

See README.md for the full tour.
"""

from repro._version import __version__
from repro.errors import (
    ReproError,
    ConfigurationError,
    GeometryError,
    ImagingError,
    ChainError,
    PartitioningError,
    ExecutorError,
    CalibrationError,
)

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "ImagingError",
    "ChainError",
    "PartitioningError",
    "ExecutorError",
    "CalibrationError",
    "quickstart_detect",
]


def quickstart_detect(
    size: int = 192,
    n_circles: int = 15,
    iterations: int = 20000,
    seed=0,
):
    """Generate a synthetic nuclei scene, fit it with sequential RJMCMC,
    and score the result — the library's smallest end-to-end path.

    Returns ``(scene, found_circles, match_report)``.
    """
    from repro.imaging import SceneSpec, generate_scene, threshold_filter
    from repro.mcmc import ModelSpec, MoveConfig, PosteriorState, MoveGenerator, MarkovChain
    from repro.imaging.density import estimate_count
    from repro.core.evaluation import evaluate_model
    from repro.utils.rng import coerce_stream

    stream = coerce_stream(seed)
    scene = generate_scene(
        SceneSpec(width=size, height=size, n_circles=n_circles, mean_radius=8.0),
        seed=stream.spawn_one(),
    )
    filtered = threshold_filter(scene.image, 0.4)
    spec = ModelSpec(
        width=size,
        height=size,
        expected_count=max(estimate_count(filtered, 0.5, 8.0), 1.0),
        radius_mean=8.0,
        radius_std=1.5,
        radius_min=2.0,
        radius_max=16.0,
    )
    post = PosteriorState(filtered, spec)
    chain = MarkovChain(post, MoveGenerator(spec, MoveConfig()), seed=stream.spawn_one())
    chain.run(iterations)
    found = post.snapshot_circles()
    return scene, found, evaluate_model(found, scene.circles)
