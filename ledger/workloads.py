"""The four workloads and the inputs each one is made of.

Everything a workload sends into the program is generated here, in the
benchmark process, from ``--seed``: the program only ever receives
pixels and job specs.  Work is *fixed*: a workload's operation counts
are a function of ``--seconds`` alone (sized so the reference host
measures for about that long), never of elapsed time, so two runs at
the same setting execute identical work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.geometry.circle import Circle
from repro.imaging.synthetic import Scene, SceneSpec, render_scene
from repro.service.protocol import pixels_job

#: ``--seconds`` at which the op counts below apply unscaled.
REFERENCE_SECONDS = 15

#: Load is sized to the host.  A closed-loop client keeps about one core
#: busy between its own thread and whichever server is working for it,
#: and the deployment's probes and event loops need slack: with more
#: runnable threads than cores the scheduler, not the program, is what
#: gets measured (on the 2-core reference host two clients doubled the
#: run-to-run spread of every stack metric).  So: one client per two
#: cores, at most two — there are two single-worker backends to feed.
N_CLIENTS = max(1, min(2, (os.cpu_count() or 1) // 2))

#: Worker processes of the ``solo-parallel`` pool — the paper's
#: "one partition per processor", at least two so there is a pool.
N_WORKERS = max(2, os.cpu_count() or 2)


@dataclass(frozen=True)
class Workload:
    """One named, fixed-work traffic shape."""

    name: str
    kind: str  #: ``solo`` (library calls) or ``stack`` (gateway deployment)
    why: str
    strategies: Tuple[str, ...]
    executor: str
    iterations: int
    timed: int  #: timed passes (solo) or jobs (stack) at REFERENCE_SECONDS
    untimed: int  #: warm-up jobs before timing (stack)
    keys: int = 0  #: distinct request keys the jobs cycle through (0 = all distinct)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="solo-serial", kind="solo",
        why="sequential baseline through engine.run only: over 90% of wall is "
            "the mcmc kernel and service/cluster/gateway are bypassed, so kernel "
            "work shows here and protocol work must not",
        strategies=("naive", "blind", "intelligent", "periodic"),
        executor="serial", iterations=5000, timed=3, untimed=0,
    ),
    Workload(
        name="solo-parallel", kind="solo",
        why="the paper's headline, partitions on a process pool: exercises "
            "parallel (pool start, shared-memory image) and partitioning "
            "balance, which solo-serial bypasses",
        strategies=("naive", "blind", "intelligent"),
        executor="process", iterations=5000, timed=5, untimed=0,
    ),
    Workload(
        name="stack-cold", kind="stack",
        why="operator path, every request a cache miss: distinct inline-pixel "
            "jobs over HTTP/SSE through gateway, router and two backends, so "
            "kernel, every hop and the cache write path are all on the clock",
        strategies=("intelligent",), executor="serial", iterations=400,
        timed=480, untimed=40,
    ),
    Workload(
        name="stack-warm", kind="stack",
        why="same deployment, every request a cache hit: the kernel does "
            "nothing, so per-job cost of service/cluster/gateway/obs is all of "
            "the latency; kernel work must not move it",
        strategies=("intelligent",), executor="serial", iterations=400,
        timed=1800, untimed=200, keys=64,
    ),
)}


@dataclass(frozen=True)
class Sizes:
    iterations: int
    timed: int
    untimed: int
    keys: int


def sized(workload: Workload, scale: float) -> Sizes:
    """Op counts at ``scale = seconds / REFERENCE_SECONDS``.

    Input shapes never scale.  Above 1 a workload runs more passes or
    jobs; below 1 the solo workloads keep three passes (a median needs
    them) and shorten the chains instead.
    """
    if workload.kind == "solo":
        return Sizes(
            iterations=max(100, round(workload.iterations * min(1.0, scale))),
            timed=max(3, round(workload.timed * scale)),
            untimed=0, keys=0,
        )
    timed = max(24, round(workload.timed * scale))
    return Sizes(
        iterations=workload.iterations,
        timed=timed,
        untimed=max(4, round(workload.untimed * min(1.0, scale))),
        keys=min(workload.keys, max(8, timed // 8)),
    )


# -- inputs --------------------------------------------------------------------

def _job_seed(seed: int, index: int) -> int:
    """A chain seed per job: an int the wire accepts, distinct per (seed, index)."""
    return (seed * 1_000_003 + index) % (2**31 - 1)


def _bead(rng, x: float, y: float, jitter: float) -> Circle:
    return Circle(x + rng.uniform(-jitter, jitter), y + rng.uniform(-jitter, jitter),
                  float(np.clip(rng.normal(8.0, 0.5), 7.5, 8.5)))


SOLO_SPEC = SceneSpec(width=192, height=192, n_circles=16, mean_radius=8.0,
                      radius_std=0.5)


def solo_scene(seed: int) -> Scene:
    """The solo workloads' image: 192², sixteen beads in four clumps.

    The layout *class* is fixed — one 2×2 clump per quadrant, beads
    inside a clump closer than the segmenter's ``min_gap``, clumps
    separated by wide empty gutters (the clumped-bead setting the
    paper's intelligent partitioning is about) — so every seed asks for
    the same amount of work: four partitions under each tiled strategy.
    The seed draws what may vary without changing the work: clump and
    bead jitter, radii, pixel noise (and, in :func:`solo_jobs`, the
    chain seeds).  A uniformly random layout would not do: its segment
    count, and with it the run time, swings by ±25 % between seeds,
    which no regression bound survives.
    """
    rng = np.random.default_rng([seed, 0x5010])
    circles: List[Circle] = []
    for qy in (48.0, 144.0):
        for qx in (48.0, 144.0):
            cx, cy = qx + rng.uniform(-6.0, 6.0), qy + rng.uniform(-6.0, 6.0)
            circles += [_bead(rng, cx + dx, cy + dy, 1.0)
                        for dy in (-10.0, 10.0) for dx in (-10.0, 10.0)]
    image = render_scene(SOLO_SPEC, circles, seed=[seed, 0x5011])
    return Scene(spec=SOLO_SPEC, circles=circles, image=image)


def solo_jobs(workload: Workload, scene: Scene, seed: int,
              iterations: int) -> List[Dict[str, Any]]:
    """One job spec per strategy over the solo *scene* (inline pixels,
    so the request is built by the same ``request_from_wire`` bridge
    the servers use)."""
    return [
        pixels_job(
            scene.image, strategy, iterations=iterations,
            seed=_job_seed(seed, i), executor=workload.executor,
            **({"n_workers": N_WORKERS} if workload.executor == "process" else {}),
        )
        for i, strategy in enumerate(workload.strategies)
    ]


STACK_SPEC = SceneSpec(width=64, height=64, n_circles=5, mean_radius=8.0,
                       radius_std=0.5)


def stack_scene(seed: int, index: int) -> Scene:
    """Stack image *index* of this seed: 64², five beads in one clump
    (a centre bead and four around it, all jittered).

    One clump means one partition under ``intelligent``, so the cost of
    a cold job has a single mode.  With uniformly random images 5–10 %
    of jobs split into two or more partitions and cost two or more
    times as much — exactly where the p95 sits, which then measures the
    seed's image mix (±10 % between seeds), not the program.
    """
    rng = np.random.default_rng([seed, 0x57AC, index])
    cx, cy = 32.0 + rng.uniform(-2.0, 2.0), 32.0 + rng.uniform(-2.0, 2.0)
    circles = [_bead(rng, cx, cy, 0.0)]
    circles += [_bead(rng, cx + dx, cy + dy, 1.5)
                for dy in (-15.0, 15.0) for dx in (-15.0, 15.0)]
    image = render_scene(STACK_SPEC, circles, seed=[seed, 0x57AD, index])
    return Scene(spec=STACK_SPEC, circles=circles, image=image)


def stack_job(seed: int, index: int) -> Tuple[Dict[str, Any], List[Circle]]:
    """Stack job *index* of this seed and its ground truth: the image
    sent inline, ``intelligent`` at 400 iterations."""
    scene = stack_scene(seed, index)
    job = pixels_job(scene.image, "intelligent", iterations=400,
                     seed=_job_seed(seed, index))
    return job, scene.circles


def stack_jobs(seed: int, count: int):
    """The first *count* stack jobs of this seed, all distinct keys, and
    their ground truths."""
    pairs = [stack_job(seed, i) for i in range(count)]
    return [job for job, _ in pairs], [truth for _, truth in pairs]
