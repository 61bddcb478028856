"""Parallel execution substrate.

Two complementary halves:

* **Real execution** — :mod:`repro.parallel.executor` /
  :mod:`repro.parallel.process` / :mod:`repro.parallel.sharedmem`: a
  small executor abstraction (serial / threads / persistent process
  pool with the image in shared memory) used by the periodic sampler
  and the partitioning pipelines to actually run partition work
  concurrently on the host.  CPython's GIL makes *processes* the unit
  of parallelism for this workload; images are placed in
  ``multiprocessing.shared_memory`` so workers never re-pickle pixels
  (cf. the mpi4py guidance: ship arrays, not objects).
* **Simulated execution** — :mod:`repro.parallel.simcluster` /
  :mod:`repro.parallel.machines`: a deterministic timing model of the
  paper's three 2010-era test machines (Q6600, Pentium-D, dual-Xeon),
  used to reproduce the architecture study without the hardware.
"""

from repro.parallel.executor import Executor, SerialExecutor, ThreadExecutor
from repro.parallel.process import ProcessExecutor
from repro.parallel.sharedmem import SharedImage, get_worker_image, set_worker_image
from repro.parallel.scheduler import lpt_schedule, makespan
from repro.parallel.machines import MachineProfile, Q6600, PENTIUM_D, XEON_2P, host_profile
from repro.parallel.simcluster import (
    CycleSpec,
    CycleTiming,
    SimResult,
    iteration_time,
    simulate_cycle,
    simulate_run,
    simulate_sequential,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SharedImage",
    "get_worker_image",
    "set_worker_image",
    "lpt_schedule",
    "makespan",
    "MachineProfile",
    "Q6600",
    "PENTIUM_D",
    "XEON_2P",
    "host_profile",
    "CycleSpec",
    "CycleTiming",
    "SimResult",
    "iteration_time",
    "simulate_cycle",
    "simulate_run",
    "simulate_sequential",
]
