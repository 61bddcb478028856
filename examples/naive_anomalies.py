#!/usr/bin/env python
"""Why naive divide-and-conquer breaks MCMC (§I, §V motivation).

Builds a scene with artifacts deliberately straddling the quartering
lines, then compares:

* naive partitioning (no overlap, area-scaled priors, no merge) — the
  approach the paper warns "results in anomalies";
* blind partitioning with the §IX safeguards (overlap + merge);
* the sequential reference.

Prints where each method's errors fall: naive errors concentrate at the
partition boundaries (duplicated or lost artifacts), the safeguarded
method's do not.

Run:  python examples/naive_anomalies.py
"""

from repro.core.evaluation import anomalies_near_lines, cut_lines
from repro.engine import DetectionRequest, run
from repro.geometry.circle import Circle
from repro.imaging.density import estimate_count
from repro.imaging.filters import threshold_filter
from repro.imaging.synthetic import Scene, SceneSpec, render_scene
from repro.mcmc import MarkovChain, ModelSpec, MoveConfig, MoveGenerator, PosteriorState
from repro.parallel.sharedmem import set_worker_image
from repro.utils.rng import RngStream
from repro.utils.tables import Table

SIZE = 256
ITERS = 12_000


def main() -> None:
    spec_img = SceneSpec(width=SIZE, height=SIZE, n_circles=12, mean_radius=9.0,
                         radius_std=0.8, min_radius=5.0, blur_sigma=0.8,
                         noise_sigma=0.015)
    mid = SIZE / 2
    circles = [
        # five artifacts straddling the cuts...
        Circle(mid, 60, 9), Circle(mid, 150, 8.5), Circle(mid, 210, 9.5),
        Circle(70, mid, 9), Circle(190, mid, 8.5),
        # ...and seven safely interior ones
        Circle(50, 50, 9), Circle(200, 60, 8), Circle(60, 200, 9),
        Circle(200, 200, 8.5), Circle(120, 80, 9), Circle(80, 120, 8),
        Circle(180, 130, 9),
    ]
    scene = Scene(spec=spec_img, circles=circles,
                  image=render_scene(spec_img, circles, seed=RngStream(seed=5)))
    filtered = threshold_filter(scene.image, 0.4)
    spec = ModelSpec(
        width=SIZE, height=SIZE,
        expected_count=max(estimate_count(filtered, 0.5, 9.0), 1.0),
        radius_mean=9.0, radius_std=1.2, radius_min=4.0, radius_max=16.0,
    )
    mc = MoveConfig()
    set_worker_image(filtered.pixels)

    print("running naive partitioning (2x2, no safeguards)...")
    naive = run(DetectionRequest(
        image=scene.image, spec=spec, move_config=mc, iterations=ITERS,
        strategy="naive", executor="serial", seed=1,
    ))
    print("running blind partitioning (2x2 with overlap + merge)...")
    blind = run(DetectionRequest(
        image=scene.image, spec=spec, move_config=mc, iterations=ITERS,
        strategy="blind", executor="serial", seed=2, options={"theta": 0.4},
    ))
    print("running the sequential reference...")
    post = PosteriorState(filtered, spec)
    MarkovChain(post, MoveGenerator(spec, mc), seed=3).run(4 * ITERS)

    lines = cut_lines([r.rect for r in naive.reports])
    t = Table(
        "Boundary anomaly accounting (band = 12 px around each cut line)",
        ["method", "found", "f1", "spurious@cut", "missed@cut",
         "spurious elsewhere", "missed elsewhere"],
        precision=3,
    )
    for name, model in [
        ("naive", naive.circles),
        ("blind+merge", blind.circles),
        ("sequential", post.snapshot_circles()),
    ]:
        out = anomalies_near_lines(model, scene.circles, lines, band=12.0)
        rep = out["report"]
        t.add_row([name, rep.n_found, rep.f1, out["spurious_near_boundary"],
                   out["missed_near_boundary"], out["spurious_elsewhere"],
                   out["missed_elsewhere"]])
    print()
    print(t.render())
    print("\nnaive partitioning duplicates/loses exactly the artifacts on "
          "the cuts; the §IX overlap+merge safeguards remove them.")


if __name__ == "__main__":
    main()
