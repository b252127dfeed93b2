"""Hardware description of the simulated experiment server."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["MachineSpec", "haswell_server"]


@dataclass(frozen=True)
class MachineSpec:
    """Static machine parameters used by the cost and power models.

    The defaults (:func:`haswell_server`) model the paper's testbed:
    two Xeon E5-2699 v3 (18 cores each, SMT2), 256 GB DDR4, GNU/Linux,
    GCC 4.8.5 / OpenMP 3.1.
    """

    name: str = "haswell-2699v3"
    sockets: int = 2
    cores_per_socket: int = 18
    smt: int = 2
    base_ghz: float = 2.3
    #: Aggregate sustainable DRAM bandwidth (GB/s) with all channels busy.
    mem_bw_gbs: float = 120.0
    #: Bandwidth one thread can draw by itself (GB/s).
    mem_bw_per_thread_gbs: float = 9.0
    ram_gb: int = 256
    #: Idle ("sleep(10)") package power in watts.  Derived from Table III:
    #: sleeping-energy / time is 24.74 W for every system row.
    idle_pkg_watts: float = 24.74
    #: Idle DRAM power in watts (Fig 9 left, bottom of the band).
    idle_dram_watts: float = 9.6
    #: Package power ceiling (TDP-ish envelope; Fig 9 tops out ~100 W).
    max_pkg_watts: float = 145.0
    #: DRAM power ceiling per the Fig 9 band.
    max_dram_watts: float = 22.0

    def __post_init__(self) -> None:
        if min(self.sockets, self.cores_per_socket, self.smt) < 1:
            raise ConfigError("sockets, cores, and smt must be >= 1")
        if self.mem_bw_per_thread_gbs > self.mem_bw_gbs:
            raise ConfigError("per-thread bandwidth exceeds machine peak")

    @property
    def n_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    @property
    def n_threads(self) -> int:
        return self.n_cores * self.smt

    def bandwidth_gbs(self, n_threads: int) -> float:
        """Aggregate DRAM bandwidth reachable by ``n_threads`` threads."""
        if n_threads < 1:
            raise ConfigError("n_threads must be >= 1")
        return min(self.mem_bw_gbs, n_threads * self.mem_bw_per_thread_gbs)


def haswell_server() -> MachineSpec:
    """The paper's 72-thread research server (Sec. III-F)."""
    return MachineSpec()
