"""PowerGraph toolkit vertex programs.

The shipped toolkits cover SSSP, PageRank, connected components, label
propagation, and (undirected) triangle counting / clustering -- but
**not BFS** (Sec. III-C).  The distance-propagation program used by the
Graphalytics PowerGraph driver to emulate BFS lives here too, under its
own name, so the capability hole in PowerGraph itself stays visible.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.pagerank import check_pagerank_params
from repro.algorithms.sssp import check_sssp_weights
from repro.graph.frontier import arc_sum_operator
from repro.machine.threads import WorkProfile
from repro.systems.powergraph.gas import GasEngine, VertexProgram

__all__ = ["sssp_program", "pagerank_gas", "wcc_program", "cdlp_gas",
           "lcc_gas", "bfs_hop_program", "kcore_gas", "mis_gas"]


# ----------------------------------------------------------------------
# SSSP (toolkit: graph_analytics/sssp.cpp)
# ----------------------------------------------------------------------
def sssp_program() -> VertexProgram:
    def gather(state, weights):
        return state.data, weights

    def apply(state, vertices, gathered):
        return np.minimum(state.data[vertices], gathered)

    return VertexProgram(name="sssp", gather=gather, reduce="min",
                         apply=apply, identity=np.inf)


def run_sssp(engine: GasEngine, root: int
             ) -> tuple[np.ndarray, int, WorkProfile, dict]:
    check_sssp_weights(engine.out.weights)
    n = engine.inn.n_vertices
    dist = np.full(n, np.inf)
    dist[root] = 0.0
    active = np.zeros(n, dtype=bool)
    active[root] = True
    return engine.run(sssp_program(), dist, active)


# ----------------------------------------------------------------------
# BFS via hop distances (the *Graphalytics driver's* program, not a
# PowerGraph toolkit member).
# ----------------------------------------------------------------------
def bfs_hop_program() -> VertexProgram:
    def gather(state, weights):
        return state.data + 1.0, None

    def apply(state, vertices, gathered):
        return np.minimum(state.data[vertices], gathered)

    return VertexProgram(name="bfs-hops", gather=gather, reduce="min",
                         apply=apply, identity=np.inf)


def run_bfs_hops(engine: GasEngine, root: int
                 ) -> tuple[np.ndarray, int, WorkProfile, dict]:
    n = engine.inn.n_vertices
    hops = np.full(n, np.inf)
    hops[root] = 0.0
    active = np.zeros(n, dtype=bool)
    active[root] = True
    return engine.run(bfs_hop_program(), hops, active)


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
    rep = max(engine.cut.replication_factor, 1.0)
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
    stats = {"replication_factor": engine.cut.replication_factor}
    return rank, iterations, profile, stats


# ----------------------------------------------------------------------
# Connected components (toolkit: graph_analytics/connected_component.cpp)
# ----------------------------------------------------------------------
def wcc_program() -> VertexProgram:
    def gather(state, weights):
        return state.data, None

    def apply(state, vertices, gathered):
        return np.minimum(state.data[vertices], gathered)

    return VertexProgram(name="wcc", gather=gather, reduce="min",
                         apply=apply, identity=np.inf)


def run_wcc(engine_sym: GasEngine
            ) -> tuple[np.ndarray, int, WorkProfile, dict]:
    """Label min-propagation over the symmetrized engine."""
    n = engine_sym.inn.n_vertices
    labels = np.arange(n, dtype=np.float64)
    active = np.ones(n, dtype=bool)
    data, steps, profile, stats = engine_sym.run(wcc_program(), labels,
                                                 active)
    return data.astype(np.int64), steps, profile, stats


# ----------------------------------------------------------------------
# CDLP -- the mode reduction does not fit gather-sum/min, so the toolkit
# implements it with a gather of full label multisets; we account the
# same work through the engine-style profile while computing labels with
# the shared synchronous propagation rule.
# ----------------------------------------------------------------------
def cdlp_gas(engine: GasEngine, iterations: int = 10
             ) -> tuple[np.ndarray, int, WorkProfile, dict]:
    from repro.algorithms.cdlp import propagate_labels_once

    inn = engine.inn
    n = inn.n_vertices
    src = inn.col_idx
    dst = inn.source_ids()
    labels = np.arange(n, dtype=np.int64)
    profile = WorkProfile()
    nnz = inn.n_edges
    rep = max(engine.cut.replication_factor, 1.0)
    for _ in range(iterations):
        labels = propagate_labels_once(src, dst, labels, n)
        profile.add_round(units=nnz + n + rep * n,
                          memory_bytes=40.0 * nnz, skew=0.08)
    return labels, iterations, profile, {
        "replication_factor": engine.cut.replication_factor}


# ----------------------------------------------------------------------
# LCC (toolkit: graph_analytics/simple_undirected_triangle_count.cpp)
# ----------------------------------------------------------------------
def lcc_gas(engine: GasEngine, batch_rows: int | None = None
            ) -> tuple[np.ndarray, WorkProfile, dict]:
    import scipy.sparse as sp

    from repro.graph.frontier import resolve_batch_rows

    inn = engine.inn
    n = inn.n_vertices
    batch_rows = resolve_batch_rows(batch_rows, n)
    dst = inn.source_ids()
    src = inn.col_idx
    keep = src != dst
    a_dir = sp.csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int64),
         (src[keep], dst[keep])), shape=(n, n))
    a_dir.sum_duplicates()
    a_dir.data[:] = 1
    und = a_dir + a_dir.T
    und.data[:] = 1
    und.sum_duplicates()
    und.data[:] = 1
    und = und.tocsr()
    deg = np.asarray(und.sum(axis=1)).ravel().astype(np.float64)
    wedge_weights = deg * (deg - 1)

    tri = np.zeros(n, dtype=np.float64)
    profile = WorkProfile()
    rep = max(engine.cut.replication_factor, 1.0)
    for lo in range(0, n, batch_rows):
        hi = min(lo + batch_rows, n)
        block = (und[lo:hi] @ a_dir).multiply(und[lo:hi])
        tri[lo:hi] = np.asarray(block.sum(axis=1)).ravel()
        units = float(wedge_weights[lo:hi].sum()) + rep * (hi - lo)
        profile.add_round(units=units, memory_bytes=8.0 * units, skew=0.3)

    out = np.zeros(n, dtype=np.float64)
    mask = wedge_weights > 0
    out[mask] = tri[mask] / wedge_weights[mask]
    return out, profile, {"wedges": float(wedge_weights.sum())}


# ----------------------------------------------------------------------
# k-core (toolkit: graph_analytics/kcore.cpp) -- the toolkit peels by
# signaling sub-k vertices; each apply runs on every mirror, so the
# per-round vertex term is replication-weighted like LCC's.
# ----------------------------------------------------------------------
def kcore_gas(engine: GasEngine
              ) -> tuple[np.ndarray, int, WorkProfile, dict]:
    from repro.graph.simple import simple_undirected_view

    inn = engine.inn
    n = inn.n_vertices
    view = simple_undirected_view(inn.col_idx, inn.source_ids(), n)
    rep = max(engine.cut.replication_factor, 1.0)
    profile = WorkProfile()
    profile.add_round(units=inn.n_edges + rep * n,
                      memory_bytes=16.0 * inn.n_edges, skew=0.05)
    core = np.zeros(n, dtype=np.int64)
    stats = {"replication_factor": engine.cut.replication_factor}
    if n == 0:
        return core, 0, profile, stats
    deg = view.degrees.copy()
    alive = np.ones(n, dtype=bool)
    remaining = n
    level = 0
    supersteps = 0
    while remaining:
        alive_idx = np.flatnonzero(alive)
        level = max(level, int(deg[alive_idx].min()))
        frontier = alive_idx[deg[alive_idx] <= level]
        while frontier.size:
            supersteps += 1
            core[frontier] = level
            alive[frontier] = False
            remaining -= int(frontier.size)
            nbrs = view.neighbors_of(frontier)
            touched = nbrs.size
            nbrs = nbrs[alive[nbrs]]
            profile.add_round(units=touched + rep * frontier.size,
                              memory_bytes=24.0 * touched, skew=0.1)
            if nbrs.size == 0:
                break
            ids, cnt = np.unique(nbrs, return_counts=True)
            new_deg = np.maximum(deg[ids] - cnt, level)
            deg[ids] = new_deg
            frontier = ids[new_deg <= level]
    return core, supersteps, profile, stats


# ----------------------------------------------------------------------
# MIS (toolkit: graph_analytics/simple_coloring-style rounds) -- gather
# is a min over mirror-replicated neighbor priorities, apply decides
# winners, scatter retires their neighbors.
# ----------------------------------------------------------------------
def mis_gas(engine: GasEngine, priorities: np.ndarray
            ) -> tuple[np.ndarray, int, WorkProfile, dict]:
    from repro.graph.simple import simple_undirected_view

    inn = engine.inn
    n = inn.n_vertices
    view = simple_undirected_view(inn.col_idx, inn.source_ids(), n)
    rep = max(engine.cut.replication_factor, 1.0)
    profile = WorkProfile()
    profile.add_round(units=inn.n_edges + rep * n,
                      memory_bytes=16.0 * inn.n_edges, skew=0.05)
    in_set = np.zeros(n, dtype=bool)
    stats = {"replication_factor": engine.cut.replication_factor}
    if n == 0:
        return in_set, 0, profile, stats
    pr = np.asarray(priorities, dtype=np.int64)
    decided = np.zeros(n, dtype=bool)
    sentinel = np.int64(n)
    starts = view.indptr[:-1]
    nonempty = view.degrees > 0
    supersteps = 0
    while not decided.all():
        supersteps += 1
        undecided = int(n - decided.sum())
        vals = np.where(decided[view.indices], sentinel,
                        pr[view.indices])
        best = np.full(n, sentinel, dtype=np.int64)
        if nonempty.any():
            best[nonempty] = np.minimum.reduceat(vals, starts[nonempty])
        winners = ~decided & (pr < best)
        in_set[winners] = True
        decided[winners] = True
        losers = view.neighbors_of(np.flatnonzero(winners))
        decided[losers] = True
        profile.add_round(
            units=view.nnz + losers.size + rep * undecided,
            memory_bytes=24.0 * (view.nnz + losers.size), skew=0.1)
    return in_set, supersteps, profile, stats
