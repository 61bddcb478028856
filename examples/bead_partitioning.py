#!/usr/bin/env python
"""Intelligent and blind partitioning in action (Figs. 3 & 4, §VIII–IX).

Reproduces the paper's two illustration figures as image files:

* ``beads_scene.pgm`` — the input bead image (Fig. 3 top-left);
* ``beads_filtered.pgm`` — after the threshold filter (Fig. 3 top-right);
* ``beads_intelligent.pgm`` — partition boundaries found by the
  empty-gap pre-processor, drawn over the scene (Fig. 3 bottom);
* ``beads_blind.pgm`` — the blind 2×2 cores (bright) and overlap bands
  (dim) drawn over the scene (Fig. 4 top-left);

and prints the Table-I-style per-partition summary plus the blind-merge
accounting.

Run:  python examples/bead_partitioning.py
"""

from pathlib import Path

import numpy as np

from repro.bench.workloads import bead_workload
from repro.core.evaluation import evaluate_model
from repro.engine import run
from repro.imaging import Image, threshold_filter, write_pgm
from repro.imaging.density import estimate_count, estimate_count_by_area
from repro.partitioning.blind import blind_partitions
from repro.partitioning.intelligent import segment_image
from repro.utils.tables import Table

HERE = Path(__file__).resolve().parent
ITERS = 12_000


def draw_rect_outline(pixels: np.ndarray, rect, value: float) -> None:
    rows, cols = rect.pixel_slices()
    r0, r1 = rows.start, min(rows.stop, pixels.shape[0]) - 1
    c0, c1 = cols.start, min(cols.stop, pixels.shape[1]) - 1
    if r1 <= r0 or c1 <= c0:
        return
    pixels[r0, c0:c1 + 1] = value
    pixels[r1, c0:c1 + 1] = value
    pixels[r0:r1 + 1, c0] = value
    pixels[r0:r1 + 1, c1] = value


def main() -> None:
    workload = bead_workload(scale=0.5)
    scene, model, moves = workload.scene, workload.model, workload.moves
    write_pgm(scene.image, HERE / "beads_scene.pgm")

    filtered = threshold_filter(scene.image, workload.threshold)
    write_pgm(filtered, HERE / "beads_filtered.pgm")

    # ---- Fig. 3: intelligent partitioning -------------------------------
    seg = segment_image(filtered, min_gap=14)
    overlay = scene.image.pixels.copy()
    for rect in seg.partitions:
        draw_rect_outline(overlay, rect, 1.0)
    write_pgm(Image(overlay, copy=False), HERE / "beads_intelligent.pgm")

    print(f"intelligent pre-processor found {len(seg)} partitions")
    result = run(workload.request(
        "intelligent", iterations=ITERS, seed=1, options={"min_gap": 14},
    ))
    bounds = scene.image.bounds
    whole = estimate_count(filtered, 0.5, model.radius_mean)
    t = Table(
        "Intelligent partitioning (Table I layout)",
        ["partition", "rel area", "# obj visual", "# obj density",
         "# obj thresh", "t/iter (s)", "runtime (s)"],
        precision=3,
    )
    for k, p in enumerate(result.reports):
        visual = sum(1 for c in scene.circles if p.rect.contains_point(c.x, c.y))
        t.add_row([chr(ord("A") + k), p.rect.area / bounds.area, visual,
                   estimate_count_by_area(whole, p.rect, bounds=bounds),
                   p.expected_count, p.seconds_per_iteration,
                   p.elapsed_seconds])
    print(t.render())
    rep = evaluate_model(result.circles, scene.circles)
    print(f"intelligent pipeline: F1 {rep.f1:.2f} "
          f"({rep.n_matched}/{rep.n_truth} matched)\n")

    # ---- Fig. 4: blind partitioning --------------------------------------
    parts = blind_partitions(scene.image.bounds, 2, 2, 1.1 * model.radius_mean)
    overlay = scene.image.pixels.copy()
    for p in parts:
        draw_rect_outline(overlay, p.expanded, 0.6)
        draw_rect_outline(overlay, p.core, 1.0)
    write_pgm(Image(overlay, copy=False), HERE / "beads_blind.pgm")

    blind = run(workload.request(
        "blind", iterations=ITERS, seed=2,
        options={"nx": 2, "ny": 2, "overlap_factor": 1.1},
    ))
    print("blind partitioning quadrant runtimes (s):",
          " ".join(f"{r.elapsed_seconds:.2f}" for r in blind.reports))
    merge = blind.merge
    print(f"merge: auto={merge.n_auto_accepted} merged={merge.n_merged} "
          f"corroborated={merge.n_corroborated} "
          f"disputed kept={merge.n_disputed_kept} "
          f"dropped={merge.n_disputed_dropped}")
    rep = evaluate_model(blind.circles, scene.circles)
    print(f"blind pipeline: F1 {rep.f1:.2f} "
          f"({rep.n_matched}/{rep.n_truth} matched)")
    print("\nwrote beads_scene.pgm, beads_filtered.pgm, "
          "beads_intelligent.pgm, beads_blind.pgm")


if __name__ == "__main__":
    main()
