"""Simulated execution platform.

The paper ran on a dual-socket Intel Xeon E5-2699 v3 (Haswell) server:
36 cores, 72 hardware threads, 256 GB DDR4 (Sec. III-F).  This package
replaces that machine with a deterministic model:

* :mod:`~repro.machine.spec` -- the hardware description;
* :mod:`~repro.machine.threads` -- a work-span cost model that converts
  a kernel's measured operation counts (its :class:`WorkProfile`) into a
  simulated wall time for any thread count, including the effects the
  paper observes: memory-bandwidth saturation, load imbalance on skewed
  graphs, barrier costs, cache-line contention at small thread counts
  (the Graph500's 2-thread dip), and the reduced marginal value of
  hyperthreads beyond 36;
* :mod:`~repro.machine.variance` -- seeded run-to-run noise so repeated
  trials produce the paper's box-plot spreads, with shorter runs more
  sensitive to "spikes in CPU usage" (Sec. IV-B).

Kernels always compute *real* results; only the clock is simulated.
"""

from repro.machine.spec import MachineSpec, haswell_server
from repro.machine.threads import (
    CostParams,
    SimResult,
    ThreadModel,
    WorkProfile,
    WorkRound,
)
from repro.machine.variance import VarianceModel

__all__ = [
    "MachineSpec",
    "haswell_server",
    "CostParams",
    "WorkProfile",
    "WorkRound",
    "SimResult",
    "ThreadModel",
    "VarianceModel",
]
