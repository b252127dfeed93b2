"""PowerGraph toolkit vertex programs.

The shipped toolkits cover SSSP, PageRank, connected components, label
propagation, and (undirected) triangle counting / clustering -- but
**not BFS** (Sec. III-C).  The distance-propagation program used by the
Graphalytics PowerGraph driver to emulate BFS lives here too, under its
own name, so the capability hole in PowerGraph itself stays visible.
SSSP, that BFS and WCC are min-programs on the GAS engine, each named
by what an arc adds (:mod:`repro.systems.powergraph.gas`).  CDLP, LCC,
k-core and MIS run the one body of each in :mod:`repro.algorithms`,
called by :class:`~repro.systems.base.GraphSystem`; here they are only
priced, as supersteps whose vertex term is weighted by the vertex cut's
replication factor.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.pagerank import check_pagerank_params
from repro.algorithms.sssp import check_sssp_weights
from repro.graph.csr import CSRGraph
from repro.graph.frontier import arc_sum_operator
from repro.machine.threads import WorkProfile
from repro.systems.powergraph.gas import GasEngine

__all__ = ["run_sssp", "run_bfs_hops", "pagerank_gas", "run_wcc",
           "cdlp_gas", "lcc_gas", "kcore_gas", "mis_gas"]


def _from_root(engine: GasEngine, root: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Initial values and signals of a rooted min-program: 0 at the
    signalled root, ``inf`` elsewhere."""
    n = engine.out.n_vertices
    data = np.full(n, np.inf)
    data[root] = 0.0
    active = np.zeros(n, dtype=bool)
    active[root] = True
    return data, active


# ----------------------------------------------------------------------
# SSSP (toolkit: graph_analytics/sssp.cpp): an arc adds its weight.
# ----------------------------------------------------------------------
def run_sssp(engine: GasEngine, root: int
             ) -> tuple[np.ndarray, int, WorkProfile, dict]:
    check_sssp_weights(engine.out.weights)
    return engine.run(*_from_root(engine, root))


# ----------------------------------------------------------------------
# BFS via hop distances (the *Graphalytics driver's* program, not a
# PowerGraph toolkit member): an arc adds one hop.
# ----------------------------------------------------------------------
def run_bfs_hops(engine: GasEngine, root: int
                 ) -> tuple[np.ndarray, int, WorkProfile, dict]:
    return engine.run(*_from_root(engine, root), adds=1.0)


# ----------------------------------------------------------------------
# PageRank (toolkit: graph_analytics/pagerank.cpp), homogenized stop.
# ----------------------------------------------------------------------
def pagerank_gas(engine: GasEngine, damping: float = 0.85,
                 epsilon: float = 6e-8, max_iterations: int = 1000
                 ) -> tuple[np.ndarray, int, WorkProfile, dict]:
    """Synchronous PageRank sweeps on the GAS engine.

    All vertices stay signaled each sweep (PowerGraph's PR gathers every
    round); the homogenized global stop |p_i - p_(i-1)|_1 < epsilon is
    evaluated by the harness hook the paper added to each system.

    The homogenization hook rescales the toolkit's ranks to a
    probability vector so the shared threshold is comparable; the extra
    quiescence detection superstep of the synchronous engine is included
    in the iteration count.
    """
    check_pagerank_params(damping, epsilon, max_iterations)
    inn = engine.inn
    n = inn.n_vertices
    out_deg = engine.out.out_degrees().astype(np.float64)
    dangling = out_deg == 0
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / out_deg[~dangling]
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    profile = WorkProfile()
    nnz = inn.n_edges
    rep = max(engine.replication_factor, 1.0)
    arcs = arc_sum_operator(inn.row_ptr, inn.col_idx, n)

    iterations = 0
    for it in range(1, max_iterations + 1):
        iterations = it
        contrib = arcs @ (rank * inv_out)
        new_rank = base + damping * (contrib + rank[dangling].sum() / n)
        delta = float(np.abs(new_rank - rank).sum())
        rank = new_rank
        profile.add_round(units=nnz + n + rep * n,
                          memory_bytes=24.0 * nnz + 16.0 * rep * n,
                          skew=0.05)
        if delta < epsilon:
            break
    # Quiescence detection superstep (all vertices gather once more and
    # decline to signal).
    iterations += 1
    profile.add_round(units=n + rep * n, memory_bytes=16.0 * rep * n,
                      skew=0.05)
    stats = {"replication_factor": engine.replication_factor}
    return rank, iterations, profile, stats


# ----------------------------------------------------------------------
# Connected components (toolkit: graph_analytics/connected_component.cpp):
# an arc adds nothing to the label it carries.
# ----------------------------------------------------------------------
def run_wcc(engine_sym: GasEngine
            ) -> tuple[np.ndarray, int, WorkProfile, dict]:
    """Label min-propagation over the symmetrized engine."""
    n = engine_sym.out.n_vertices
    labels = np.arange(n, dtype=np.float64)
    active = np.ones(n, dtype=bool)
    data, steps, profile, stats = engine_sym.run(labels, active, adds=0.0)
    return data.astype(np.int64), steps, profile, stats


# ----------------------------------------------------------------------
# CDLP, LCC, k-core and MIS: GraphSystem runs the shared body and hands
# its facts to these prices, each of which takes the PowerGraphData.
# CDLP -- the mode reduction does not fit gather-sum/min, so the toolkit
# implements it with a gather of full label multisets; we account the
# same work through the engine-style profile.
# ----------------------------------------------------------------------
def cdlp_gas(data, iterations: int) -> tuple[WorkProfile, int, dict]:
    engine = data.engine
    nnz = engine.out.n_edges
    n = engine.out.n_vertices
    rep = max(engine.replication_factor, 1.0)
    profile = WorkProfile()
    for _ in range(iterations):
        profile.add_round(units=nnz + n + rep * n,
                          memory_bytes=40.0 * nnz, skew=0.08)
    return profile, iterations, {
        "replication_factor": engine.replication_factor}


# ----------------------------------------------------------------------
# LCC (toolkit: graph_analytics/simple_undirected_triangle_count.cpp)
# ----------------------------------------------------------------------
def lcc_gas(data, wedges: np.ndarray, blocks: list
            ) -> tuple[WorkProfile, None]:
    profile = WorkProfile()
    rep = max(data.engine.replication_factor, 1.0)
    for lo, hi in blocks:
        units = float(wedges[lo:hi].sum()) + rep * (hi - lo)
        profile.add_round(units=units, memory_bytes=8.0 * units, skew=0.3)
    return profile, None


def _view_profile(engine: GasEngine) -> tuple[WorkProfile, float]:
    """The replication factor and a profile whose first round builds
    the simple view: every arc plus every mirror once."""
    out = engine.out
    rep = max(engine.replication_factor, 1.0)
    profile = WorkProfile()
    profile.add_round(units=out.n_edges + rep * out.n_vertices,
                      memory_bytes=16.0 * out.n_edges, skew=0.05)
    return profile, rep


# ----------------------------------------------------------------------
# k-core (toolkit: graph_analytics/kcore.cpp) -- the toolkit peels by
# signaling sub-k vertices; each apply runs on every mirror, so the
# per-round vertex term is replication-weighted like LCC's.
# ----------------------------------------------------------------------
def kcore_gas(data, view: CSRGraph, rounds: list
              ) -> tuple[WorkProfile, int, dict]:
    profile, rep = _view_profile(data.engine)
    for peeled, arcs, _ in rounds:
        profile.add_round(units=arcs + rep * peeled,
                          memory_bytes=24.0 * arcs, skew=0.1)
    return profile, len(rounds), {
        "replication_factor": data.engine.replication_factor}


# ----------------------------------------------------------------------
# MIS (toolkit: graph_analytics/simple_coloring-style rounds) -- gather
# is a min over mirror-replicated neighbor priorities, apply decides
# winners, scatter retires their neighbors.
# ----------------------------------------------------------------------
def mis_gas(data, view: CSRGraph, rounds: list
            ) -> tuple[WorkProfile, int, dict]:
    profile, rep = _view_profile(data.engine)
    for undecided, _, winner_arcs in rounds:
        profile.add_round(
            units=view.n_edges + winner_arcs + rep * undecided,
            memory_bytes=24.0 * (view.n_edges + winner_arcs), skew=0.1)
    return profile, len(rounds), {
        "replication_factor": data.engine.replication_factor}
