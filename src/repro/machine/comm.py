"""Communication pricing for sharded execution.

Ammar & Özsu's observation -- the partitioning strategy *is* the cost
model of distributed graph processing -- made quantitative: a sharded
kernel pays, on top of the :class:`~repro.machine.threads.ThreadModel`
compute price at ``n_threads = n_shards``, one synchronization and one
message exchange per superstep.  The exchanged volume is what the
engine actually moved: broadcast frontiers plus per-shard delta rings,
both proportional to the partition's cut -- an arc whose endpoints are
not co-mastered with its executor turns its update into a cross-shard
``(id, value)`` message of :data:`~repro.shard.engine.MESSAGE_BYTES`.

This module prices *estimates only*: the suite's reported kernel times
come from the serial-equivalent profile and never include these terms,
which is what keeps a ``--shards N`` run's REPORT.md byte-identical.
At ``n_shards == 1`` the communication terms vanish and
:func:`simulate_sharded` collapses to ``ThreadModel.simulate`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.spec import MachineSpec
from repro.machine.threads import CostParams, SimResult, ThreadModel, WorkProfile

__all__ = ["CommCostParams", "CommProfile", "ShardSimResult",
           "simulate_sharded"]


@dataclass(frozen=True)
class CommCostParams:
    """Pricing of one process-to-process exchange path.

    Defaults model same-node shared-memory transport: a barrier plus
    ring handoff in the tens of microseconds, and memcpy-limited
    bandwidth well below DRAM peak (both sides touch the pages).
    """

    #: Fixed per-superstep synchronization cost (two barriers plus the
    #: parent's merge dispatch).
    round_latency_s: float = 25e-6
    #: Sustained cross-shard payload bandwidth.
    bytes_per_s: float = 8e9


@dataclass(frozen=True)
class CommProfile:
    """What a sharded kernel actually exchanged (engine accounting)."""

    #: Supersteps executed (two barriers each).
    rounds: int
    #: Total payload moved through frontiers and delta rings.
    bytes_exchanged: int
    #: The partition's cut (arcs whose executing shard is not the
    #: master of both endpoints); reported for analysis.
    cut_edges: int = 0


@dataclass(frozen=True)
class ShardSimResult:
    """A sharded price: compute breakdown plus communication terms."""

    time_s: float
    compute: SimResult
    comm_s: float
    latency_s: float
    transfer_s: float
    n_shards: int


def simulate_sharded(profile: WorkProfile, costs: CostParams,
                     n_shards: int, comm: CommProfile,
                     machine: MachineSpec | None = None,
                     comm_costs: CommCostParams | None = None
                     ) -> ShardSimResult:
    """Price ``profile`` executed across ``n_shards`` processes.

    Compute is the thread model at ``n_threads = n_shards`` (shards are
    the parallelism); communication adds ``rounds * latency +
    bytes / bandwidth``.  A single shard exchanges nothing, so the
    result equals the serial simulation -- the cost model stays
    calibrated.
    """
    from repro.machine.spec import haswell_server

    comm_costs = comm_costs or CommCostParams()
    compute = ThreadModel(machine or haswell_server()).simulate(
        profile, costs, n_threads=n_shards)
    if n_shards <= 1:
        latency_s = transfer_s = 0.0
    else:
        latency_s = comm.rounds * comm_costs.round_latency_s
        transfer_s = comm.bytes_exchanged / comm_costs.bytes_per_s
    comm_s = latency_s + transfer_s
    return ShardSimResult(
        time_s=compute.time_s + comm_s, compute=compute, comm_s=comm_s,
        latency_s=latency_s, transfer_s=transfer_s, n_shards=n_shards)
