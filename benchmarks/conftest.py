"""Shared benchmark fixtures.

Benchmarks regenerate the paper's tables and figures.  Heavy MCMC work
runs once per experiment via ``benchmark.pedantic(..., rounds=1)``;
every benchmark prints a paper-vs-measured report and asserts the
paper's *shape* (which scheme wins, which partition dominates) rather
than its absolute numbers.

Workloads are scaled down from the paper's 1024² / 500k-iteration runs
so the whole suite finishes in minutes.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import bead_workload, fig2_workload


@pytest.fixture(scope="session")
def fig2_small():
    """A quarter-scale Fig. 2 workload (256², ~9 cells)."""
    return fig2_workload(scale=0.25)


@pytest.fixture(scope="session")
def fig2_medium():
    """A half-scale Fig. 2 workload (512², ~38 cells) for live speedups."""
    return fig2_workload(scale=0.5)


@pytest.fixture(scope="session")
def beads():
    """A half-scale bead image (three clumps, 12 beads)."""
    return bead_workload(scale=0.5)


def emit(capsys, text: str) -> None:
    """Print a report so it survives pytest's capture."""
    with capsys.disabled():
        print()
        print(text)
