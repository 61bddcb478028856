"""Benchmark support: canonical workloads, calibration, reporting.

Each module in ``benchmarks/`` regenerates one table or figure of the
paper; the shared machinery — the workload definitions matching the
paper's experimental setups, host timing calibration, and the
paper-vs-measured report formatting — lives here so benchmark files
stay declarative.  Performance itself is measured by ``ledger/`` alone.
"""

from repro.bench.workloads import (
    Workload,
    fig2_workload,
    bead_workload,
    small_nuclei_workload,
)
from repro.bench.calibration import CalibrationResult, calibrate_iteration_cost
from repro.bench.harness import (
    fig2_cycle_specs,
    simulate_fig2_point,
    simulate_architecture,
)
from repro.bench.reporting import paper_vs_measured_table

__all__ = [
    "Workload",
    "fig2_workload",
    "bead_workload",
    "small_nuclei_workload",
    "CalibrationResult",
    "calibrate_iteration_cost",
    "fig2_cycle_specs",
    "simulate_fig2_point",
    "simulate_architecture",
    "paper_vs_measured_table",
]
