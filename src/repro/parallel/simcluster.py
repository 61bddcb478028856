"""Deterministic timing simulation of periodic-partitioned MCMC runs.

This stands in for the paper's hardware study:
given a machine profile, a sequence of cycle specifications (how many
global iterations, how the local iterations were allocated across
partitions of which feature counts), the simulator computes the wall
clock a run would take on that machine:

* a global phase is strictly sequential:
  ``n_g · τ(total features)``;
* a local phase schedules the per-partition chunks onto the machine's
  cores with LPT and costs the makespan, each chunk priced at the
  *partition's own* feature count (small partitions iterate faster —
  the Table I effect);
* each cycle pays ``phase_overhead`` for splitting, distributing and
  merging state.

All quantities are deterministic given the cycle specs; benchmarks draw
the specs from real grid randomisation + allocation so the simulated
curves inherit the true variability of partition sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.parallel.machines import MachineProfile
from repro.parallel.scheduler import makespan

__all__ = [
    "CycleSpec",
    "CycleTiming",
    "SimResult",
    "iteration_time",
    "simulate_cycle",
    "simulate_run",
    "simulate_sequential",
]


@dataclass(frozen=True)
class CycleSpec:
    """One global↔local cycle of a periodic run.

    Attributes
    ----------
    global_iters:
        Iterations of the sequential global phase.
    local_allocs:
        Iterations allocated to each partition for the local phase.
    features_per_partition:
        Modifiable-feature counts per partition (prices the per-
        iteration cost of each chunk).
    total_features:
        Model size during the global phase.
    """

    global_iters: int
    local_allocs: Sequence[int]
    features_per_partition: Sequence[int]
    total_features: int

    def __post_init__(self) -> None:
        if self.global_iters < 0 or self.total_features < 0:
            raise ConfigurationError("cycle counts must be non-negative")
        if len(self.local_allocs) != len(self.features_per_partition):
            raise ConfigurationError(
                f"{len(self.local_allocs)} allocations for "
                f"{len(self.features_per_partition)} partitions"
            )
        if any(a < 0 for a in self.local_allocs):
            raise ConfigurationError("allocations must be non-negative")
        if any(f < 0 for f in self.features_per_partition):
            raise ConfigurationError("feature counts must be non-negative")

    @property
    def local_iters(self) -> int:
        return int(sum(self.local_allocs))


@dataclass(frozen=True)
class CycleTiming:
    """Simulated wall clock of one cycle, by component."""

    global_seconds: float
    local_seconds: float
    overhead_seconds: float

    @property
    def total(self) -> float:
        return self.global_seconds + self.local_seconds + self.overhead_seconds


@dataclass(frozen=True)
class SimResult:
    """Aggregate of a simulated run."""

    total_seconds: float
    global_seconds: float
    local_seconds: float
    overhead_seconds: float
    cycles: int
    iterations: int

    def fraction_of(self, sequential_seconds: float) -> float:
        """Runtime as a fraction of a sequential baseline."""
        if sequential_seconds <= 0:
            raise ConfigurationError("sequential baseline must be positive")
        return self.total_seconds / sequential_seconds


def iteration_time(profile: MachineProfile, n_features: int) -> float:
    """Convenience alias for :meth:`MachineProfile.iteration_time`."""
    return profile.iteration_time(n_features)


def simulate_cycle(profile: MachineProfile, cycle: CycleSpec) -> CycleTiming:
    """Wall clock of one cycle on *profile* (see module docstring)."""
    g = cycle.global_iters * profile.iteration_time(cycle.total_features)
    chunk_costs = [
        alloc * profile.iteration_time(nf)
        for alloc, nf in zip(cycle.local_allocs, cycle.features_per_partition)
        if alloc > 0
    ]
    l = makespan(chunk_costs, profile.cores) if chunk_costs else 0.0
    return CycleTiming(global_seconds=g, local_seconds=l,
                       overhead_seconds=profile.phase_overhead)


def simulate_run(profile: MachineProfile, cycles: Iterable[CycleSpec]) -> SimResult:
    """Simulate a full periodic run as the sum of its cycles."""
    tg = tl = to = 0.0
    n_cycles = 0
    iters = 0
    for cycle in cycles:
        t = simulate_cycle(profile, cycle)
        tg += t.global_seconds
        tl += t.local_seconds
        to += t.overhead_seconds
        n_cycles += 1
        iters += cycle.global_iters + cycle.local_iters
    return SimResult(
        total_seconds=tg + tl + to,
        global_seconds=tg,
        local_seconds=tl,
        overhead_seconds=to,
        cycles=n_cycles,
        iterations=iters,
    )


def simulate_sequential(
    profile: MachineProfile, iterations: int, n_features: int
) -> float:
    """Wall clock of the conventional sequential chain on *profile*."""
    if iterations < 0:
        raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
    return iterations * profile.iteration_time(n_features)
