#!/usr/bin/env python
"""cProfile the chain hot path: a top-N hotspot table for the classic
chain and the K=4 multiproposal chain on the standard 128² / 10-circle
synthetic workload.  Finds candidates only — the profiler taxes Python
calls and not numpy, so speed is measured with ``ledger/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workloads import synthetic_workload  # noqa: E402
from repro.mcmc import (  # noqa: E402
    MarkovChain,
    MoveGenerator,
    MultiproposalChain,
    PosteriorState,
)

WARMUP = 2_000


def run_profile(iterations: int, top: int) -> None:
    workload = synthetic_workload(size=128, n_circles=10, seed=3)

    def fresh():
        post = PosteriorState(workload.filtered, workload.model)
        return post, MoveGenerator(workload.model, workload.moves)

    chains = {
        "classic chain (width 1)": lambda: MarkovChain(*fresh(), seed=99),
        "multiproposal chain (width 4)":
            lambda: MultiproposalChain(*fresh(), width=4, seed=99),
    }
    for label, make_chain in chains.items():
        chain = make_chain()
        chain.run(WARMUP)
        prof = cProfile.Profile()
        prof.enable()
        chain.run(iterations)
        prof.disable()
        print(f"== {label}: top {top} by total time ==")
        pstats.Stats(prof).strip_dirs().sort_stats("tottime").print_stats(top)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iterations", type=int, default=30_000)
    parser.add_argument("--profile-top", type=int, default=25,
                        help="rows in each hotspot table")
    args = parser.parse_args()
    run_profile(args.iterations, args.profile_top)
