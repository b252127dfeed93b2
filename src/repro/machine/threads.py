"""Work-span thread-scaling model.

Every kernel in :mod:`repro.systems` computes its real result with
vectorized NumPy while recording a :class:`WorkProfile`: one
:class:`WorkRound` per parallel region (a BFS level, an SSSP bucket
relaxation, a PageRank sweep) holding the number of abstract *work
units* executed (edges examined, vertices updated) and the bytes of
memory traffic they caused.  :class:`ThreadModel` then prices that
profile for an arbitrary thread count ``n``:

.. math::

    T(n) = t_{startup}
         + w_{serial} \\cdot c_{unit}
         + \\sum_r \\Big[
              \\max\\big(\\frac{w_r c_{unit}}{P(n)} \\cdot I(n) \\cdot
              X(n),\\; \\frac{b_r}{BW(n)}\\big) + t_{barrier}(n) \\Big]

with

* ``P(n)`` -- effective parallelism: full cores count 1, hyperthreads
  count ``smt_yield`` (the paper's Figs 5-6 show the 36→72 region
  flattening);
* ``I(n)`` -- load imbalance on skew-heavy rounds, growing with ``n``;
* ``X(n)`` -- cache-line/atomic contention, worst at 2-4 threads and
  decaying (models the Graph500 being *slower* on 2 threads than 1,
  Fig 6);
* ``BW(n)`` -- DRAM bandwidth reachable by ``n`` threads (roofline);
* ``t_barrier(n)`` -- OpenMP barrier/fork-join cost per round, growing
  logarithmically in ``n``.

The model is deterministic; run-to-run spread is added separately by
:class:`repro.machine.variance.VarianceModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.machine.spec import MachineSpec

__all__ = ["WorkRound", "WorkProfile", "CostParams", "SimResult",
           "ThreadModel"]


@dataclass
class WorkRound:
    """One parallel region between two barriers."""

    units: float
    memory_bytes: float = 0.0
    #: Fraction of this round's units concentrated on the heaviest
    #: vertex/partition; drives the imbalance term.  0 means perfectly
    #: balanceable.
    skew: float = 0.0

    def __post_init__(self) -> None:
        if self.units < 0 or self.memory_bytes < 0:
            raise ConfigError("work and traffic must be non-negative")
        self.skew = float(min(max(self.skew, 0.0), 1.0))


@dataclass
class WorkProfile:
    """Operation counts recorded by one kernel execution."""

    rounds: list[WorkRound] = field(default_factory=list)
    serial_units: float = 0.0

    def add_round(self, units: float, memory_bytes: float = 0.0,
                  skew: float = 0.0) -> None:
        self.rounds.append(WorkRound(units, memory_bytes, skew))

    @property
    def total_units(self) -> float:
        return self.serial_units + sum(r.units for r in self.rounds)

    @property
    def total_bytes(self) -> float:
        return sum(r.memory_bytes for r in self.rounds)

    def merged(self, other: "WorkProfile") -> "WorkProfile":
        """Concatenate two profiles (e.g. build phase + run phase)."""
        return WorkProfile(rounds=self.rounds + other.rounds,
                           serial_units=self.serial_units + other.serial_units)

    # ------------------------------------------------------------------
    # Serialization (repro.cache): three float64 columns, one row per
    # round.  Caching the profile (not the priced time) is what keeps
    # the cache thread-invariant -- pricing is re-simulated on restore.
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict:
        import numpy as np

        return {
            "profile_units": np.asarray(
                [r.units for r in self.rounds], dtype=np.float64),
            "profile_mem": np.asarray(
                [r.memory_bytes for r in self.rounds], dtype=np.float64),
            "profile_skew": np.asarray(
                [r.skew for r in self.rounds], dtype=np.float64),
        }

    @staticmethod
    def from_arrays(units, memory_bytes, skew,
                    serial_units: float = 0.0) -> "WorkProfile":
        rounds = [WorkRound(float(u), float(b), float(s))
                  for u, b, s in zip(units, memory_bytes, skew)]
        return WorkProfile(rounds=rounds,
                           serial_units=float(serial_units))


@dataclass(frozen=True)
class CostParams:
    """Per-(system, kernel) pricing of abstract work units.

    These are the calibration constants of the reproduction; the values
    for each system live in :mod:`repro.systems.calibration` together
    with the paper anchors that justify them.
    """

    #: Seconds per work unit on one thread (includes per-edge instruction
    #: cost and cache behaviour of the system's data layout).
    sec_per_unit: float
    #: Fixed per-invocation cost: engine init, scheduler spin-up.
    startup_s: float = 0.0
    #: Barrier/fork-join cost coefficient (seconds); scaled by log2(n).
    barrier_s: float = 2.0e-6
    #: Load-imbalance growth with threads on skewed rounds.
    imbalance: float = 0.15
    #: Contention amplitude at 2 threads (0 disables the effect).
    contention: float = 0.0
    #: e-folding of the contention term in threads.
    contention_decay: float = 4.0
    #: Marginal throughput of a hyperthread relative to a full core.
    smt_yield: float = 0.35
    #: Average bytes of DRAM traffic per work unit (roofline term).
    bytes_per_unit: float = 16.0

    def __post_init__(self) -> None:
        if self.sec_per_unit <= 0:
            raise ConfigError("sec_per_unit must be positive")
        if not 0 <= self.smt_yield <= 1:
            raise ConfigError("smt_yield must be in [0, 1]")


@dataclass(frozen=True)
class SimResult:
    """Priced execution: simulated seconds with a component breakdown."""

    time_s: float
    compute_s: float
    memory_s: float
    barrier_s: float
    startup_s: float
    serial_s: float
    n_threads: int
    effective_parallelism: float

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ConfigError("negative simulated time")


class ThreadModel:
    """Prices :class:`WorkProfile` objects on a :class:`MachineSpec`."""

    def __init__(self, machine: MachineSpec):
        self.machine = machine

    # ------------------------------------------------------------------
    def effective_parallelism(self, n_threads: int, smt_yield: float) -> float:
        """Cores contribute 1.0 each; extra SMT siblings ``smt_yield``."""
        if n_threads < 1:
            raise ConfigError("n_threads must be >= 1")
        cores = self.machine.n_cores
        full = min(n_threads, cores)
        extra = max(n_threads - cores, 0)
        return full + smt_yield * extra

    def contention_factor(self, n_threads: int, costs: CostParams) -> float:
        """Cache-line/atomic contention multiplier; 1.0 for serial runs."""
        if n_threads <= 1 or costs.contention <= 0:
            return 1.0
        return 1.0 + costs.contention * math.exp(
            -(n_threads - 2) / costs.contention_decay)

    def imbalance_factor(self, n_threads: int, costs: CostParams,
                         skew: float) -> float:
        """Straggler penalty: grows with threads and with round skew."""
        if n_threads <= 1:
            return 1.0
        return 1.0 + costs.imbalance * (0.25 + skew) * math.log2(n_threads)

    def barrier_cost(self, n_threads: int, costs: CostParams) -> float:
        if n_threads <= 1:
            return 0.0
        return costs.barrier_s * (1.0 + math.log2(n_threads))

    # ------------------------------------------------------------------
    def simulate(self, profile: WorkProfile, costs: CostParams,
                 n_threads: int) -> SimResult:
        """Price ``profile`` for ``n_threads`` threads."""
        p = self.effective_parallelism(n_threads, costs.smt_yield)
        bw = self.machine.bandwidth_gbs(n_threads) * 1e9
        x = self.contention_factor(n_threads, costs)

        compute = 0.0
        memory = 0.0
        barrier = 0.0
        total = 0.0
        for r in profile.rounds:
            imb = self.imbalance_factor(n_threads, costs, r.skew)
            c = (r.units * costs.sec_per_unit / p) * imb * x
            bytes_r = r.memory_bytes if r.memory_bytes > 0 else (
                r.units * costs.bytes_per_unit)
            mem = bytes_r / bw
            b = self.barrier_cost(n_threads, costs)
            total += max(c, mem) + b
            compute += c
            memory += mem
            barrier += b

        serial = profile.serial_units * costs.sec_per_unit
        total += serial + costs.startup_s
        return SimResult(
            time_s=total,
            compute_s=compute,
            memory_s=memory,
            barrier_s=barrier,
            startup_s=costs.startup_s,
            serial_s=serial,
            n_threads=n_threads,
            effective_parallelism=p,
        )
