"""Full-scale projections through the calibrated cost model.

Real kernels run at laptop scales; the paper's scalability study
(Figs 5-6) ran BFS on a scale-23 Kronecker graph, where per-invocation
fixed costs are negligible next to kernel work.  At small scales those
fixed costs -- genuinely -- dominate and flatten every speedup curve, so
reproducing the *shape* of Figs 5-6 requires pricing the paper's own
workload.  :func:`project` does exactly that: it builds the analytic
:class:`~repro.machine.threads.WorkProfile` each system would report
for a :class:`WorkloadSize` (unit counts scaled from the calibration
anchors, which are themselves cross-checked against measured kernel
counts) and prices it at a thread count.

The same projection answers the paper's Sec. V question, "will this
experiment finish?": :func:`check_feasibility` compares the projected
runtime against a wall-clock budget and :func:`estimate_memory_bytes`
against the machine's RAM.  Memory prices each system's structure as
loaded (``LoadedGraph.data.nbytes()``), not kernel-time memos such as
GAP's ``weight_split`` or a CSR's ``transposed()``.

Used by ``benchmarks/bench_fig5.py`` / ``bench_fig6.py``, the paper
suite, ``epg feasibility`` and the paper-claims test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analysis import EfficiencyTable
from repro.errors import ConfigError
from repro.machine.spec import MachineSpec, haswell_server
from repro.machine.threads import ThreadModel, WorkProfile
from repro.systems import calibration

__all__ = ["WorkloadSize", "project", "projected_scalability",
           "estimate_memory_bytes", "FeasibilityVerdict",
           "check_feasibility", "PAPER_SCALING_SCALE"]

#: Figs 5-6 ran "a Kronecker graph of scale 23" (Sec. IV-B).
PAPER_SCALING_SCALE = 23


@dataclass(frozen=True)
class WorkloadSize:
    """Abstract size of a graph workload.

    ``wedges`` (sum of d*(d-1)) drives LCC/TC cost; when unknown it is
    estimated from a scale-free degree model matching the Kronecker
    generator's skew: ``wedges ~= avg_deg * m * skew`` with skew ~= 10.
    """

    n_vertices: int
    n_arcs: int
    wedges: float | None = None

    def __post_init__(self) -> None:
        if self.n_vertices < 1 or self.n_arcs < 0:
            raise ConfigError("workload size must be positive")

    def wedge_estimate(self) -> float:
        if self.wedges is not None:
            return self.wedges
        return 10.0 * (self.n_arcs / self.n_vertices) * self.n_arcs

    @staticmethod
    def kronecker(scale: int) -> "WorkloadSize":
        if scale < 1:
            raise ConfigError(f"Kronecker scale must be >= 1, got {scale}")
        n = 1 << scale
        arcs = 2 * 16 * n
        # Scale the calibrated scale-22 wedge estimate by arcs^~1.16
        # (heavy-tail growth measured across scales).
        wedges = calibration.SCALE22_WEDGES * (
            arcs / calibration.SCALE22_ARCS) ** 1.16
        return WorkloadSize(n_vertices=n, n_arcs=arcs, wedges=wedges)


#: Anchors priced per sweep, and the sweeps one run makes.  LCC and TC
#: anchors price a whole run by wedges; every other anchor prices a
#: whole run by arcs, spread over the typical BFS depth.
_SWEEPS: dict[str, int] = {"pagerank": 100, "wcc": 8, "cdlp": 10}
_WEDGE_DRIVEN = ("lcc", "tc")


def project(system: str, algorithm: str, size: WorkloadSize,
            n_threads: int = 32,
            machine: MachineSpec | None = None) -> float:
    """Simulated seconds for one kernel run of ``size``.

    Arc-driven unit counts scale linearly with the arc count relative
    to the scale-22 anchors (per-arc work fractions are scale-stable
    for Kronecker graphs at fixed edge factor; verified against
    measured kernels in the test suite).
    """
    try:
        anchor = calibration._ANCHORS[system][algorithm]
    except KeyError:
        raise ConfigError(
            f"no anchor for {system}/{algorithm}") from None
    if algorithm in _WEDGE_DRIVEN:
        # The tc anchor's half-wedge convention cancels in the ratio.
        rounds = 1
        per_round = anchor.units * (size.wedge_estimate()
                                    / calibration.SCALE22_WEDGES)
    else:
        units = anchor.units * (size.n_arcs / calibration.SCALE22_ARCS)
        if algorithm in _SWEEPS:
            rounds, per_round = _SWEEPS[algorithm], units
        else:
            rounds = calibration.SCALE22_BFS_LEVELS
            per_round = units / rounds
    profile = WorkProfile()
    for _ in range(rounds):
        profile.add_round(units=per_round, skew=anchor.skew)
    machine = machine or haswell_server()
    costs = calibration.cost_params(system, algorithm, machine)
    return ThreadModel(machine).simulate(profile, costs, n_threads).time_s


def projected_scalability(system: str, algorithm: str = "bfs",
                          scale: int = PAPER_SCALING_SCALE,
                          thread_counts=(1, 2, 4, 8, 16, 32, 64, 72),
                          machine: MachineSpec | None = None
                          ) -> EfficiencyTable:
    """The Figs 5-6 curve for one system at the paper's scale."""
    size = WorkloadSize.kronecker(scale)
    times = [project(system, algorithm, size, n, machine)
             for n in thread_counts]
    return EfficiencyTable(system=system, algorithm=algorithm,
                           threads=list(thread_counts),
                           mean_times=times)


#: Bytes per arc / per vertex of each system's structure as loaded,
#: read off ``LoadedGraph.data.nbytes()`` on Kronecker graphs (within
#: 0.7 % at scales 10 and 12, edge factors 4 and 16).  Every Kronecker
#: scale has arcs = 32 n at the default edge factor, so the two columns
#: are pinned by two edge factors, not by two scales.  Kronecker graphs
#: are undirected: GAP's inverse and GraphMat's symmetric pattern are
#: the structure itself and cost nothing more.  PowerGraph counts its
#: in-CSR, one object with its out-CSR there, all the same.  GraphMat
#: counts the DCSR it models, not the CSR it holds: the row pointer
#: becomes 16 B per non-empty row (``GraphMatMatrices.nbytes``).
_MEMORY_MODEL: dict[str, tuple[float, float]] = {
    # (bytes_per_arc, bytes_per_vertex)
    "gap": (16.0, 24.0),          # one weighted CSR + degrees
    "graph500": (8.0, 8.0),       # single unweighted CSR
    "graphbig": (16.0, 48.0),     # weighted CSR + property records
    "graphmat": (16.0, 18.0),     # A^T counted as DCSR + degrees
    "powergraph": (32.0, 16.0),   # engine's in + out weighted CSR
}


def estimate_memory_bytes(system: str, size: WorkloadSize) -> float:
    """Loaded structure footprint of ``system`` holding ``size``."""
    try:
        per_arc, per_vertex = _MEMORY_MODEL[system]
    except KeyError:
        raise ConfigError(f"no memory model for {system!r}") from None
    return per_arc * size.n_arcs + per_vertex * size.n_vertices


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Answer to "will it finish?"."""

    system: str
    algorithm: str
    est_runtime_s: float
    est_memory_bytes: float
    fits_memory: bool
    within_time_limit: bool

    @property
    def feasible(self) -> bool:
        return self.fits_memory and self.within_time_limit

    @property
    def limiting_factor(self) -> str | None:
        if not self.fits_memory:
            return "memory"
        if not self.within_time_limit:
            return "time"
        return None


def check_feasibility(system: str, algorithm: str, size: WorkloadSize,
                      n_threads: int = 32,
                      machine: MachineSpec | None = None,
                      time_limit_s: float | None = None
                      ) -> FeasibilityVerdict:
    """Project runtime and memory; compare against the machine/budget."""
    machine = machine or haswell_server()
    runtime = project(system, algorithm, size, n_threads, machine)
    memory = estimate_memory_bytes(system, size)
    fits = memory <= machine.ram_gb * 1e9 * 0.9  # leave OS headroom
    in_time = time_limit_s is None or runtime <= time_limit_s
    return FeasibilityVerdict(
        system=system, algorithm=algorithm, est_runtime_s=runtime,
        est_memory_bytes=memory, fits_memory=fits,
        within_time_limit=in_time)
