#!/usr/bin/env python
"""cProfile the chain hot path: a top-N hotspot table for the classic
chain on the standard 128² / 10-circle synthetic workload.  Finds
candidates only — the profiler taxes Python calls and not numpy, so
speed is measured with ``ledger/run.py``.

It then reruns the classic chain unprofiled and counts, per iteration,
the work the removal cache exists to save: full disc windows
rasterised, resize masks cut from a cached distance² grid, and
overlap-energy evaluations, plus the share of trial removals that
rasterised nothing.  The counts are deterministic for the fixed seed;
the script exits 1 when windows or energy evaluations per iteration
exceed their ceilings, which is how a cache that silently always misses
(every result still bit-identical) gets caught.

    python scripts/profile_kernel.py --iterations 3000 --profile-top 5
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workloads import synthetic_workload  # noqa: E402
from repro.mcmc import MarkovChain, MoveGenerator, PosteriorState  # noqa: E402
from repro.mcmc.coverage import CoverageRaster  # noqa: E402
from repro.mcmc.prior import OverlapPrior  # noqa: E402

WARMUP = 2_000

#: Ceilings on the counted work per classic iteration.  Without the
#: removal cache both read 1.83: a rejected translate or resize
#: rasterised and energy-priced its removed disc as well as its added one.
MAX_WINDOWS_PER_ITER = 0.75
MAX_ENERGY_PER_ITER = 1.20

#: (class, method, counter name): each call of the method is one unit
#: of the named work.
COUNTED = (
    (CoverageRaster, "_disc_mask", "windows"),
    (CoverageRaster, "_removal_entry", "windows"),
    (CoverageRaster, "_removal_entry", "removal_misses"),
    (CoverageRaster, "trial_remove_disc", "removals"),
    (CoverageRaster, "_resize_mask", "resize_masks"),
    (OverlapPrior, "energy_and_partners", "energy"),
)


@contextmanager
def counting(counts: Counter):
    """Count calls of the :data:`COUNTED` methods while active."""
    originals = {}
    for cls, name, _ in COUNTED:
        originals.setdefault((cls, name), getattr(cls, name))
    for (cls, name), orig in originals.items():
        labels = [label for c, n, label in COUNTED if (c, n) == (cls, name)]

        def wrapper(*args, _orig=orig, _labels=labels, **kwargs):
            for label in _labels:
                counts[label] += 1
            return _orig(*args, **kwargs)

        setattr(cls, name, wrapper)
    try:
        yield
    finally:
        for (cls, name), orig in originals.items():
            setattr(cls, name, orig)


def run_profile(iterations: int, top: int) -> int:
    workload = synthetic_workload(size=128, n_circles=10, seed=3)

    def classic():
        post = PosteriorState(workload.filtered, workload.model)
        return MarkovChain(post, MoveGenerator(workload.model, workload.moves), seed=99)

    chain = classic()
    chain.run(WARMUP)
    prof = cProfile.Profile()
    prof.enable()
    chain.run(iterations)
    prof.disable()
    print(f"== classic chain: top {top} by total time ==")
    pstats.Stats(prof).strip_dirs().sort_stats("tottime").print_stats(top)

    chain = classic()
    chain.run(WARMUP)
    accepted_before = chain.stats.total_accepted()
    counts: Counter = Counter()
    with counting(counts):
        chain.run(iterations)
    accepted = chain.stats.total_accepted() - accepted_before
    windows = counts["windows"] / iterations
    energy = counts["energy"] / iterations
    removals = counts["removals"]
    hit_ratio = 1.0 - counts["removal_misses"] / removals if removals else 0.0
    print(f"== classic chain: work per iteration over {iterations} iterations ==")
    print(f"full disc windows            {windows:.3f}  (ceiling {MAX_WINDOWS_PER_ITER})")
    print(f"cached-grid resize masks     {counts['resize_masks'] / iterations:.3f}")
    print(f"overlap-energy evaluations   {energy:.3f}  (ceiling {MAX_ENERGY_PER_ITER})")
    print(f"removal-cache hit ratio      {hit_ratio:.3f}  ({removals} trial removals)")
    print(f"acceptance rate              {accepted / iterations:.3f}")
    failed = []
    if windows > MAX_WINDOWS_PER_ITER:
        failed.append(f"{windows:.3f} disc windows per iteration > {MAX_WINDOWS_PER_ITER}")
    if energy > MAX_ENERGY_PER_ITER:
        failed.append(f"{energy:.3f} energy evaluations per iteration > {MAX_ENERGY_PER_ITER}")
    for reason in failed:
        print(f"FAIL: {reason}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--iterations", type=int, default=30_000)
    parser.add_argument("--profile-top", type=int, default=25,
                        help="rows in the hotspot table")
    args = parser.parse_args()
    sys.exit(run_profile(args.iterations, args.profile_top))
