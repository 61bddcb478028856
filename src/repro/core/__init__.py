"""The paper's mechanisms: periodic partitioning, the runtime model,
the sub-image chains partitioned schemes run, and result evaluation.

* :mod:`repro.core.theory` — eqs. (2)–(4): predicted runtimes for
  periodic partitioning, optionally with speculative moves.
* :mod:`repro.core.phases` — the global/local phase schedule that keeps
  long-term move-proposal probabilities unchanged (§V).
* :mod:`repro.core.periodic` — the periodic-partitioning sampler
  (statistically equivalent to conventional MCMC).
* :mod:`repro.core.subimage` — one independent chain over one
  partition, the unit the tiled schemes (naive, blind, intelligent)
  dispatch.
* :mod:`repro.core.evaluation` — result-quality metrics against ground
  truth, and boundary-anomaly accounting around partition cut lines.

All four partitioning schemes run as registered strategies of the
detection engine: ``repro.engine.run(DetectionRequest(...,
strategy="naive" | "blind" | "intelligent" | "periodic"))``.
"""

from repro.core.theory import (
    eq2_runtime,
    eq3_runtime,
    eq4_runtime,
    periodic_runtime_fraction,
    fig1_series,
)
from repro.core.phases import PhaseSchedule
from repro.core.subimage import (
    SubImageTask,
    SubImageResult,
    run_subimage_task,
    make_subimage_task,
)
from repro.core.partition_runner import (
    LocalPhaseTask,
    LocalPhaseResult,
    run_local_phase_task,
    build_local_phase_tasks,
    apply_local_phase_results,
)
from repro.core.periodic import (
    PeriodicPartitioningSampler,
    PeriodicResult,
    single_point_partitioner,
    grid_partitioner,
)
from repro.core.evaluation import (
    MatchReport,
    evaluate_model,
    anomalies_near_lines,
    cut_lines,
)

__all__ = [
    "eq2_runtime",
    "eq3_runtime",
    "eq4_runtime",
    "periodic_runtime_fraction",
    "fig1_series",
    "PhaseSchedule",
    "SubImageTask",
    "SubImageResult",
    "run_subimage_task",
    "make_subimage_task",
    "LocalPhaseTask",
    "LocalPhaseResult",
    "run_local_phase_task",
    "build_local_phase_tasks",
    "apply_local_phase_results",
    "PeriodicPartitioningSampler",
    "PeriodicResult",
    "single_point_partitioner",
    "grid_partitioner",
    "MatchReport",
    "evaluate_model",
    "anomalies_near_lines",
    "cut_lines",
]
