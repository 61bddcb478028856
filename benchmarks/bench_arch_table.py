"""Experiment ``arch`` — §VII: periodic-partitioning runtime reductions
on the three test machines.

Paper (measured): Pentium-D −38 %, Q6600 −29 %, dual-Xeon −23 %, all at
the 20 ms-per-global-phase sweet spot, vs eq. (2)'s ideal −45 %.
Reproduced on the calibrated machine profiles, which stand in for the
paper's hardware.
"""

import pytest

from conftest import emit
from repro.bench.harness import simulate_architecture
from repro.bench.reporting import paper_vs_measured_table
from repro.core.theory import periodic_runtime_fraction
from repro.geometry.rect import Rect
from repro.parallel.machines import PENTIUM_D, Q6600, XEON_2P

BOUNDS = Rect(0, 0, 1024, 1024)
PAPER_REDUCTIONS = {"Pentium-D": 0.38, "Q6600": 0.29, "Xeon-2P": 0.23}


def run_table():
    out = {}
    for profile in (PENTIUM_D, Q6600, XEON_2P):
        res = simulate_architecture(
            profile, 500_000, 0.4, 150, BOUNDS, global_phase_seconds=0.020, seed=11
        )
        out[profile.name] = res
    return out


def test_architecture_table(benchmark, capsys):
    results = benchmark.pedantic(run_table, iterations=1, rounds=1)

    rows = [
        (f"{name} runtime reduction", PAPER_REDUCTIONS[name], res.reduction)
        for name, res in results.items()
    ]
    rows.append(("eq.(2) ideal reduction (s=4)", 0.45, 1 - periodic_runtime_fraction(0.4, 4)))
    emit(capsys, paper_vs_measured_table(
        "§VII architecture study — periodic partitioning, 20 ms global phases",
        rows, precision=3,
    ))

    # The paper's ordering and rough magnitudes must hold.
    red = {k: v.reduction for k, v in results.items()}
    assert red["Pentium-D"] > red["Q6600"] > red["Xeon-2P"]
    for name, paper in PAPER_REDUCTIONS.items():
        assert red[name] == pytest.approx(paper, abs=0.05)
