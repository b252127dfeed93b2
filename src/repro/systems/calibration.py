"""Cost-model and power-model constants for every system.

This module is the numerical heart of the reproduction.  Each
(system, kernel) pair gets a :class:`~repro.machine.threads.CostParams`
whose ``sec_per_unit`` is *solved* so that the thread model prices the
paper's workload (Kronecker scale 22, 32 threads) at the paper's
measured time.  Anchors and their sources:

* BFS per-root times -- Table III (exact): GAP 0.01636 s, Graph500
  0.01884 s, GraphBIG 1.600 s, GraphMat 1.424 s.
* SSSP / PageRank / construction times -- read off Figs 2-4.
* CDLP / WCC / LCC per-iteration and total costs -- backed out of
  Tables I-II after subtracting the load times Graphalytics wrongly
  includes for some platforms (Sec. II).
* Power -- Table III CPU watts (exact) and Fig 9 DRAM watts.
* Scaling-shape parameters (imbalance, SMT yield, contention) -- Figs
  5-6: GAP most scalable, GraphMat passing GAP at 72 threads, Graph500
  slower on 2 threads than 1, GraphBIG flattest.

Because ``sec_per_unit`` is solved *through the same model* that later
prices real kernels, changing a shape parameter automatically re-anchors
the absolute times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigError
from repro.machine.spec import MachineSpec, haswell_server
from repro.machine.threads import CostParams, ThreadModel
from repro.power.energy import PowerParams

__all__ = [
    "Anchor",
    "SystemShape",
    "cost_params",
    "build_params",
    "power_params",
    "noise_sensitivity",
    "read_rate_mbs",
    "SCALE22_N",
    "SCALE22_TUPLES",
    "SCALE22_ARCS",
]

# ----------------------------------------------------------------------
# The anchor workload: Kronecker scale 22 (Sec. IV-A).
# ----------------------------------------------------------------------
SCALE22_N = 1 << 22                    # 4,194,304 vertices
SCALE22_TUPLES = 16 * SCALE22_N        # ~67.1M generated edge tuples
SCALE22_ARCS = 2 * SCALE22_TUPLES      # ~134M stored arcs (symmetrized)
#: Estimated total wedge work sum(d(d-1)) of the scale-22 Kronecker
#: graph; dominated by the heavy tail.
SCALE22_WEDGES = 4.0e10
#: Typical BFS depth on the scale-22 graph (drives per-level vector ops).
SCALE22_BFS_LEVELS = 8


@dataclass(frozen=True)
class Anchor:
    """One calibration point: measured seconds on 32 threads at scale 22
    for an estimated number of abstract work units."""

    time_32t_s: float
    units: float
    skew: float = 0.10

    def __post_init__(self) -> None:
        if self.time_32t_s <= 0 or self.units <= 0:
            raise ConfigError("anchor time and units must be positive")


@dataclass(frozen=True)
class SystemShape:
    """Scaling-shape parameters shared by all of a system's kernels."""

    imbalance: float
    smt_yield: float
    contention: float
    contention_decay: float
    barrier_s: float
    bytes_per_unit: float = 16.0


# ----------------------------------------------------------------------
# Shapes (Figs 5-6).
# ----------------------------------------------------------------------
_SHAPES: dict[str, SystemShape] = {
    # GAP: best scaling overall; mild imbalance, strong SMT benefit.
    "gap": SystemShape(imbalance=0.42, smt_yield=0.42, contention=0.08,
                       contention_decay=4.0, barrier_s=2.5e-6),
    # Graph500: slower on 2 threads than 1 (Fig 6) -- strong small-n
    # contention from atomics on the shared frontier; weak SMT yield.
    "graph500": SystemShape(imbalance=0.52, smt_yield=0.22,
                            contention=1.35, contention_decay=2.0,
                            barrier_s=4.0e-6),
    # GraphBIG: flattest speedup curve of Figs 5-6.
    "graphbig": SystemShape(imbalance=0.95, smt_yield=0.12,
                            contention=0.25, contention_decay=3.0,
                            barrier_s=6.0e-6),
    # GraphMat: close behind GAP (slightly more row-partition imbalance)
    # but the best SMT yield, letting it edge past GAP at 72 threads
    # (Fig 5) -- bulk-synchronous SpMV loves hyperthreads.
    "graphmat": SystemShape(imbalance=0.48, smt_yield=0.55,
                            contention=0.10, contention_decay=4.0,
                            barrier_s=5.0e-6),
    # PowerGraph: fiber scheduler hides some imbalance but adds sync.
    "powergraph": SystemShape(imbalance=0.60, smt_yield=0.30,
                              contention=0.15, contention_decay=3.0,
                              barrier_s=1.2e-5),
}

# ----------------------------------------------------------------------
# Kernel anchors.  "units" are what each system's kernel actually counts
# while running (edges examined, nnz per sweep, wedges, ...); see the
# per-system modules.  PR/CDLP/WCC anchors are per-sweep.
# ----------------------------------------------------------------------
_M = float(SCALE22_ARCS)
_N = float(SCALE22_N)

# Unit counts below marked "measured" are the per-arc work fractions the
# actual kernels report on Kronecker graphs, projected to the scale-22
# arc count; no test checks that they are scale-stable, and GAP's BFS
# fraction is not (0.155 at scale 10, 0.061 at 16).  Anchor *times*
# exclude the per-invocation startup overhead (_STARTUP_S), which the
# thread model adds separately.
_ANCHORS: dict[str, dict[str, Anchor]] = {
    "gap": {
        # Direction-optimizing BFS examines ~17% of arcs per root
        # (measured) vs. the Graph500's 102%.
        "bfs": Anchor(0.01636, 0.17 * _M),
        # Delta-stepping: ~5.3 relaxation units per arc (measured).
        "sssp": Anchor(0.150, 5.3 * _M),
        # One pull sweep touches every arc plus every vertex.
        "pagerank": Anchor(0.075, _M + _N),
        "wcc": Anchor(0.050, 2.0 * _M + _N),
        "cdlp": Anchor(0.50, _M + _N),
        "lcc": Anchor(190.0, SCALE22_WEDGES),
        # Extension kernels (Sec. V): anchors follow the GAP paper's
        # reported order of magnitude on comparable Kronecker graphs,
        # not this paper (which does not time them).
        "bc": Anchor(2.0, 16 * 2 * 0.8 * _M),
        "tc": Anchor(60.0, SCALE22_WEDGES / 2.0),
        # Structural matrix (docs/algorithms.md): the peel touches
        # each arc ~twice (gather + decrement) ...
        "kcore": Anchor(0.080, 2.0 * _M + 2.0 * _N),
        # ... Luby rounds touch live arcs ~1.5x before dying out ...
        "mis": Anchor(0.040, 1.5 * _M + _N),
        # ... and Afforest's sampled hooks beat full SV's 2 units/arc.
        "cc": Anchor(0.030, _M + _N),
    },
    "graph500": {
        # Top-down only: every arc examined once per root (measured
        # 1.02 units/arc).
        "bfs": Anchor(0.01884, 1.02 * _M),
    },
    "graphbig": {
        # Edge work plus the per-visit property-API overhead
        # (PROPERTY_ACCESS_COST edge-equivalents per vertex).
        "bfs": Anchor(1.600, 1.02 * _M + 16.0 * _N),
        # Queue Bellman-Ford: ~4.9 relaxations per arc (measured), with
        # ~2.5 property visits per vertex across supersteps.
        "sssp": Anchor(0.60, 4.9 * _M + 40.0 * _N),
        "pagerank": Anchor(0.47, _M + _N),
        "wcc": Anchor(0.30, _M + _N),
        "cdlp": Anchor(0.74, _M + _N),
        "lcc": Anchor(1800.0, SCALE22_WEDGES),
        # Property-API visits dominate the structural kernels too.
        "kcore": Anchor(0.90, 2.0 * _M + 16.0 * _N),
        "mis": Anchor(0.55, 1.5 * _M + 16.0 * _N),
        "cc": Anchor(0.22, _M + _N),
    },
    "graphmat": {
        # Masked SpMV per level: ~1.15 units/arc (measured; all arcs
        # once plus an O(n) vector op per level).
        "bfs": Anchor(1.424, 1.15 * _M),
        # Min-plus Bellman-Ford sweeps: ~5.2 units/arc (measured).
        "sssp": Anchor(0.50, 5.2 * _M),
        "pagerank": Anchor(0.20, _M + _N),
        "wcc": Anchor(0.175, _M + _N),
        "cdlp": Anchor(4.0, _M + _N),
        "lcc": Anchor(395.0, SCALE22_WEDGES),
        # Full-sweep degree recounts: one SpMV per peel superstep.
        "kcore": Anchor(0.60, 3.0 * _M + _N),
        "mis": Anchor(0.30, 2.0 * _M + _N),
    },
    "powergraph": {
        # GAS SSSP: gather + scatter + mirror sync ~= 19.5 units/arc
        # (measured).  No BFS toolkit; Graphalytics drives BFS through
        # the hop-distance GAS program, priced via these constants.
        "sssp": Anchor(0.90, 19.5 * _M),
        # Per sweep: nnz + n + replication * n ~= 1.5 units/arc
        # (measured).
        "pagerank": Anchor(0.30, 1.5 * _M),
        "wcc": Anchor(0.25, _M + _N),
        "cdlp": Anchor(2.0, 1.5 * _M),
        "lcc": Anchor(265.0, SCALE22_WEDGES),
        # Mirror-synchronized apply per superstep on top of edge work.
        "kcore": Anchor(0.70, 2.5 * _M + _N),
        "mis": Anchor(0.45, 2.0 * _M + _N),
    },
}

#: Data-structure construction anchors (Fig 2 right, Fig 3 right): time
#: to turn the in-RAM tuple list into the system's structure.  Units are
#: edge tuples.
_BUILD_ANCHORS: dict[str, Anchor] = {
    "gap": Anchor(1.25, float(SCALE22_TUPLES), skew=0.05),
    "graph500": Anchor(3.30, float(SCALE22_TUPLES), skew=0.05),
    "graphbig": Anchor(4.00, float(SCALE22_TUPLES), skew=0.05),
    "graphmat": Anchor(3.00, float(SCALE22_TUPLES), skew=0.05),
    # Vertex-cut partitioning makes PowerGraph's ingest the slowest.
    "powergraph": Anchor(8.00, float(SCALE22_TUPLES), skew=0.05),
}

#: Fixed per-kernel-invocation overhead (engine init/teardown), seconds.
#: These dominate at small scales -- the paper's point that "the
#: overhead of these frameworks may dominate for smaller problem sizes"
#: (Sec. VI) is carried almost entirely by these constants.
_STARTUP_S: dict[str, float] = {
    "gap": 2.0e-5,          # a bare OpenMP region fork
    "graph500": 2.0e-5,
    "graphbig": 5.0e-4,     # property-graph task-queue setup
    "graphmat": 5.0e-4,     # SpMV scheduler spin-up
    "powergraph": 0.9,      # fiber engine launch dominates small runs
}

#: Table III (CPU) and Fig 9 (DRAM) power anchors at 32 threads.
_POWER: dict[str, PowerParams] = {
    "gap": PowerParams(72.38, 16.5, smt_yield=0.42),
    "graph500": PowerParams(97.17, 18.5, smt_yield=0.22),
    "graphbig": PowerParams(78.01, 14.5, smt_yield=0.12),
    "graphmat": PowerParams(70.12, 11.5, smt_yield=0.55),
    "powergraph": PowerParams(75.0, 13.0, smt_yield=0.30),
}

#: Relative sensitivity to background CPU spikes (Sec. IV-B: the
#: Graph500's short back-to-back kernels are the most exposed).
_NOISE_SENSITIVITY: dict[str, float] = {
    "gap": 1.0,
    "graph500": 3.0,
    "graphbig": 0.6,
    "graphmat": 0.7,
    "powergraph": 0.8,
}

#: Effective file ingest rates in MB/s, including format parse cost,
#: keyed by the homogenized file a system prices (its ``input_key``).
#: The GraphMat binary rate reproduces the Table I log excerpt: 610 MB
#: of dota-league records read in 2.65 s ~= 230 MB/s.
_READ_RATE_MBS: dict[str, float] = {
    "wel": 85.0,       # whitespace text parsing
    "tsv": 85.0,
    "graphbig": 70.0,  # GraphBIG's quoted CSV is slower to parse
    "mtxbin": 230.0,
    "g500": 450.0,
}


# ----------------------------------------------------------------------
# Solvers
# ----------------------------------------------------------------------
def _solve_sec_per_unit(anchor: Anchor, shape: SystemShape,
                        machine: MachineSpec) -> float:
    """Invert the thread model at the 32-thread anchor point.

    ``T = units * spu / P(32) * I(32) * X(32)`` ignoring barriers and the
    roofline (both negligible at anchor magnitudes), so
    ``spu = T * P / (units * I * X)``.
    """
    tm = ThreadModel(machine)
    probe = CostParams(
        sec_per_unit=1.0, imbalance=shape.imbalance,
        contention=shape.contention,
        contention_decay=shape.contention_decay,
        smt_yield=shape.smt_yield, barrier_s=shape.barrier_s,
    )
    p = tm.effective_parallelism(32, shape.smt_yield)
    imb = tm.imbalance_factor(32, probe, anchor.skew)
    x = tm.contention_factor(32, probe)
    return anchor.time_32t_s * p / (anchor.units * imb * x)


@lru_cache(maxsize=None)
def cost_params(system: str, algorithm: str,
                machine: MachineSpec | None = None) -> CostParams:
    """CostParams for one (system, kernel), anchored to the paper.

    ``machine`` is accepted for interface symmetry but ignored for the
    solve: the anchors were measured on the paper's Haswell server, so
    ``sec_per_unit`` is a property of the *software*, always derived at
    that reference point.  Pricing on a different
    :class:`~repro.machine.spec.MachineSpec` happens in the
    :class:`~repro.machine.threads.ThreadModel` that consumes these
    params.
    """
    try:
        shape = _SHAPES[system]
        anchor = _ANCHORS[system][algorithm]
    except KeyError:
        raise ConfigError(
            f"no calibration for system={system!r} algorithm={algorithm!r}"
        ) from None
    return CostParams(
        sec_per_unit=_solve_sec_per_unit(anchor, shape, haswell_server()),
        startup_s=_STARTUP_S[system],
        barrier_s=shape.barrier_s,
        imbalance=shape.imbalance,
        contention=shape.contention,
        contention_decay=shape.contention_decay,
        smt_yield=shape.smt_yield,
        bytes_per_unit=shape.bytes_per_unit,
    )


@lru_cache(maxsize=None)
def build_params(system: str,
                 machine: MachineSpec | None = None) -> CostParams:
    """CostParams for the data-structure construction phase (the solve
    is pinned to the reference server; see :func:`cost_params`)."""
    try:
        shape = _SHAPES[system]
        anchor = _BUILD_ANCHORS[system]
    except KeyError:
        raise ConfigError(f"no build calibration for {system!r}") from None
    return CostParams(
        sec_per_unit=_solve_sec_per_unit(anchor, shape, haswell_server()),
        startup_s=0.0,
        barrier_s=shape.barrier_s,
        imbalance=shape.imbalance,
        contention=0.0,          # construction is sort/scan dominated
        smt_yield=shape.smt_yield,
        bytes_per_unit=24.0,
    )


def power_params(system: str) -> PowerParams:
    try:
        return _POWER[system]
    except KeyError:
        raise ConfigError(f"no power calibration for {system!r}") from None


def noise_sensitivity(system: str) -> float:
    try:
        return _NOISE_SENSITIVITY[system]
    except KeyError:
        raise ConfigError(f"no noise calibration for {system!r}") from None


def read_rate_mbs(format_key: str) -> float:
    try:
        return _READ_RATE_MBS[format_key]
    except KeyError:
        raise ConfigError(f"no ingest rate for format {format_key!r}") from None
