"""Machine profiles for the simulated architecture study.

The paper evaluates on three 2010-era machines; we cannot, so each is
modelled by the quantities that actually drive its results (§VII):

* ``cores`` — how many partition tasks can run concurrently;
* ``tau_base`` / ``tau_per_feature`` — per-iteration cost model
  ``τ(n) = tau_base + tau_per_feature · n``.  Iteration time grows with
  the number of features in scope (Table I measures 4×10⁻⁵ s/iter on
  the 48-object image but ~2×10⁻⁵ in a 4–6 object partition; the
  intro notes cost "can increase ... with the number [of] artifacts").
  This is why partitioned local phases run *faster per iteration* than
  the sequential chain, and why measured reductions can exceed the
  eq. (2) prediction's naive reading.
* ``phase_overhead`` — seconds per global↔local cycle spent
  duplicating, distributing and re-merging partition state.  This is
  the differentiator between the three machines: the single-die
  Pentium-D has "the best inter-thread communication times", the
  dual-socket Xeon the worst, the two-die Q6600 in between (§VII).

Overheads are calibrated so the simulator lands near the paper's
measured reductions (38 % / 29 % / 23 %) *and* reproduces Fig. 2's
crossover (periodic beats sequential only once global phases exceed a
few ms) — one constant set satisfies both, which is evidence the model
captures the right mechanism.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["MachineProfile", "Q6600", "PENTIUM_D", "XEON_2P", "host_profile"]


@dataclass(frozen=True)
class MachineProfile:
    """Timing model of one execution platform."""

    name: str
    cores: int
    tau_base: float  #: seconds/iteration independent of model size
    tau_per_feature: float  #: additional seconds/iteration per feature in scope
    phase_overhead: float  #: seconds per global↔local cycle (split+merge+sync)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {self.cores}")
        if self.tau_base < 0 or self.tau_per_feature < 0 or self.phase_overhead < 0:
            raise ConfigurationError("timing constants must be non-negative")
        if self.tau_base == 0 and self.tau_per_feature == 0:
            raise ConfigurationError("iteration cost model cannot be all zero")

    def iteration_time(self, n_features: int) -> float:
        """τ(n): seconds per MCMC iteration with *n* features in scope."""
        if n_features < 0:
            raise ConfigurationError(f"n_features must be >= 0, got {n_features}")
        return self.tau_base + self.tau_per_feature * n_features

    def scaled(self, factor: float) -> "MachineProfile":
        """A uniformly faster/slower variant (clock scaling)."""
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            name=f"{self.name}×{factor:g}",
            tau_base=self.tau_base * factor,
            tau_per_feature=self.tau_per_feature * factor,
            phase_overhead=self.phase_overhead * factor,
        )


# Reference workload: the Fig. 2 image (150 features) runs at
# τ(150) ≈ 0.174 ms/iteration → 500 000 iterations ≈ 87 s sequential,
# matching the magnitude of the paper's Fig. 2 y-axis.
_TAU_150 = 0.174e-3
_BASE_FRACTION = 0.05  # fraction of τ(150) independent of feature count

_TAU_BASE = _BASE_FRACTION * _TAU_150
_TAU_FEAT = (1.0 - _BASE_FRACTION) * _TAU_150 / 150.0

#: Intel Core 2 Quad Q6600 — four cores on two dies; moderate
#: cross-die communication cost.
Q6600 = MachineProfile(
    name="Q6600", cores=4, tau_base=_TAU_BASE, tau_per_feature=_TAU_FEAT,
    phase_overhead=5.0e-3,
)

#: Intel Pentium-D — two cores, one die: "the best inter-thread
#: communication times" (§VII).
PENTIUM_D = MachineProfile(
    name="Pentium-D", cores=2, tau_base=_TAU_BASE * 1.25,
    tau_per_feature=_TAU_FEAT * 1.25, phase_overhead=1.0e-3,
)

#: Dual-processor Xeon — two cores on separate sockets: "greater
#: communication times between threads" (§VII).
XEON_2P = MachineProfile(
    name="Xeon-2P", cores=2, tau_base=_TAU_BASE * 1.1,
    tau_per_feature=_TAU_FEAT * 1.1, phase_overhead=8.0e-3,
)


def host_profile(
    tau_base: float = _TAU_BASE,
    tau_per_feature: float = _TAU_FEAT,
    phase_overhead: float = 2.0e-3,
) -> MachineProfile:
    """A profile with the current host's core count (timing constants
    default to the reference model; calibrate with
    :mod:`repro.bench.calibration` for live comparisons)."""
    return MachineProfile(
        name="host",
        cores=os.cpu_count() or 1,
        tau_base=tau_base,
        tau_per_feature=tau_per_feature,
        phase_overhead=phase_overhead,
    )
