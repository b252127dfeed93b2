"""GraphBIG vertex-centric kernels.

All kernels operate on the property-graph structure
(:class:`~repro.systems.graphbig.system.PropertyGraph`) through
per-vertex property arrays, in the bulk-synchronous vertex-centric style
of the original benchmark suite: a task queue of active vertices, one
"process vertex" sweep per superstep.  CDLP, LCC, k-core, MIS and
Shiloach-Vishkin components run the one body of each in
:mod:`repro.algorithms`; what is GraphBIG's about them is the pricing,
with every vertex visit paying :data:`PROPERTY_ACCESS_COST`.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.cc import shiloach_vishkin
from repro.algorithms.kcore import peel_cores
from repro.algorithms.lcc import clustering_blocks
from repro.algorithms.mis import luby_rounds, mis_priorities
from repro.algorithms.pagerank import check_pagerank_params
from repro.algorithms.sssp import check_sssp_weights
from repro.graph.frontier import (arc_sum_operator, claim_first_parent,
                                  gather_slots, relax_round)
from repro.graph.scratch import scratch_for
from repro.graph.simple import simple_undirected_view
from repro.machine.threads import WorkProfile

__all__ = ["bfs_queue", "sssp_bellman_ford", "pagerank_jacobi",
           "wcc_hashmin", "cdlp_sync", "lcc_wedges",
           "kcore_props", "mis_props", "cc_sv",
           "PROPERTY_ACCESS_COST"]

#: Work units charged per vertex *visit* over and above its edge work:
#: GraphBIG routes every state change through the property-graph API
#: (locate record, check color, update fields), costing roughly this
#: many edge-traversal equivalents.  The term is why GraphBIG's
#: effective per-edge cost *improves* on dense graphs -- the overhead
#: amortizes over more edges per vertex -- which is the shape behind its
#: strong dota-league BFS in the paper's Fig 8.
PROPERTY_ACCESS_COST = 16.0


def bfs_queue(pg, root: int):
    """Task-queue BFS: plain top-down, no bitmap, no direction switch.

    The vertex property record (level + parent + color) is touched for
    every examined edge, which is what the calibration's high per-edge
    constant prices.  Expansion and parent claims run on the shared
    frontier library (``docs/kernels.md``).
    """
    csr = pg.out
    n = pg.n
    scratch = scratch_for(pg, n, csr.n_edges)
    level = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    level[root] = 0
    parent[root] = root
    visited[root] = True
    frontier = np.array([root], dtype=np.int64)
    profile = WorkProfile()
    deg = csr.out_degrees()
    max_deg = float(deg.max()) if n else 0.0
    depth = 0
    while frontier.size:
        depth += 1
        gs = gather_slots(csr.row_ptr, frontier, scratch)
        profile.add_round(
            units=gs.total + PROPERTY_ACCESS_COST * frontier.size,
            memory_bytes=32.0 * gs.total,
            skew=min(max_deg / max(gs.total, 1.0), 1.0))
        if gs.total == 0:
            break
        nbrs = csr.col_idx[gs.slots]
        srcs = np.repeat(frontier, gs.counts)
        new_v = claim_first_parent(nbrs, srcs, visited, parent, scratch)
        level[new_v] = depth
        frontier = new_v
    return parent, level, profile, {"depth": depth}


def sssp_bellman_ford(pg, root: int, symmetric: bool = False):
    """Queue-driven Bellman-Ford: active vertices relax all out-edges.

    ``symmetric`` says ``pg.out`` was symmetrized (undirected input), so
    a dense round pulls over the one CSR; otherwise it pulls over the
    transpose, built on the first dense round and memoized.
    """
    csr = pg.out
    check_sssp_weights(csr.weights)
    n = pg.n
    scratch = scratch_for(pg, n, csr.n_edges)
    inn = csr if symmetric else None
    dist = np.full(n, np.inf)
    dist[root] = 0.0
    active = np.array([root], dtype=np.int64)
    profile = WorkProfile()
    deg = csr.out_degrees()
    max_deg = float(deg.max()) if n else 0.0
    supersteps = 0
    relaxations = 0
    while active.size:
        supersteps += 1
        improved, examined = relax_round(csr, inn, active, dist, dist,
                                         scratch)
        relaxations += examined
        profile.add_round(
            units=examined + PROPERTY_ACCESS_COST * active.size,
            memory_bytes=28.0 * examined,
            skew=min(max_deg / max(examined, 1.0), 1.0))
        active = improved
    return dist, profile, {"supersteps": supersteps,
                           "relaxations": relaxations}


def pagerank_jacobi(pg, damping: float, epsilon: float,
                    max_iterations: int):
    """Pure Jacobi sweeps with the homogenized L1 stopping criterion.

    Ranks are normalized (init ``1/n``); with the homogenized absolute
    L1 threshold this puts GraphBIG's sweep count between GAP's
    Gauss-Seidel (fewer) and GraphMat's no-change float32 criterion and
    PowerGraph's unnormalized toolkit (more) -- the Fig 4 spread.
    """
    check_pagerank_params(damping, epsilon, max_iterations)
    csr = pg.out
    n = pg.n
    out_deg = csr.out_degrees().astype(np.float64)
    dangling = out_deg == 0
    arcs = arc_sum_operator(csr.row_ptr, csr.col_idx, n, scatter=True)
    # Dangling vertices own no arc; 1 only keeps 0/0 out of it.
    divisor = np.maximum(out_deg, 1.0)
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    profile = WorkProfile()
    m = csr.n_edges
    iterations = max_iterations
    for it in range(1, max_iterations + 1):
        contrib = arcs @ (rank / divisor)
        new_rank = base + damping * (contrib + rank[dangling].sum() / n)
        delta = float(np.abs(new_rank - rank).sum())
        rank = new_rank
        profile.add_round(units=m + n, memory_bytes=24.0 * m + 24.0 * n,
                          skew=0.05)
        if delta < epsilon:
            iterations = it
            break
    return rank, iterations, profile


def wcc_hashmin(pg):
    """HashMin label propagation over the undirected view."""
    n = pg.n
    src = np.concatenate([pg.out.source_ids(), pg.out.col_idx])
    dst = np.concatenate([pg.out.col_idx, pg.out.source_ids()])
    labels = np.arange(n, dtype=np.int64)
    profile = WorkProfile()
    rounds = 0
    m = src.size
    while True:
        rounds += 1
        new_labels = labels.copy()
        if m:
            np.minimum.at(new_labels, dst, labels[src])
        profile.add_round(units=m + n, memory_bytes=16.0 * m, skew=0.05)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, rounds, profile


def cdlp_sync(pg, iterations: int):
    """Synchronous label propagation (Graphalytics CDLP semantics)."""
    from repro.algorithms.cdlp import propagate_labels_once

    n = pg.n
    src = pg.out.source_ids()
    dst = pg.out.col_idx
    labels = np.arange(n, dtype=np.int64)
    profile = WorkProfile()
    m = src.size
    for _ in range(iterations):
        labels = propagate_labels_once(src, dst, labels, n)
        profile.add_round(units=m + n, memory_bytes=32.0 * m, skew=0.08)
    return labels, iterations, profile


def _simplify(pg):
    """The simple view plus its profile's first round: every arc and
    every vertex record visited once."""
    view = simple_undirected_view(pg.out.source_ids(), pg.out.col_idx,
                                  pg.n)
    profile = WorkProfile()
    profile.add_round(units=pg.out.n_edges + PROPERTY_ACCESS_COST * pg.n,
                      memory_bytes=16.0 * pg.out.n_edges, skew=0.05)
    return view, profile


def kcore_props(pg):
    """Level-synchronous k-core peel through the property records.

    GraphBIG keeps the residual degree as a vertex property and sweeps
    a task queue of sub-``k`` vertices per superstep; every peel and
    every neighbor decrement goes through the property API, so the
    per-visit overhead is charged on top of the edge work.
    """
    view, profile = _simplify(pg)
    core, rounds = peel_cores(view)
    max_deg = float(view.degrees.max()) if pg.n else 0.0
    for peeled, arcs in rounds:
        profile.add_round(units=arcs + PROPERTY_ACCESS_COST * peeled,
                          memory_bytes=32.0 * arcs,
                          skew=min(max_deg / max(arcs, 1.0), 1.0))
    return core, len(rounds), profile


def mis_props(pg, seed: int | None = None):
    """Pull-based Luby rounds over the vertex property array.

    Each superstep is a full vertex-centric sweep: every undecided
    vertex pulls the minimum priority of its undecided neighbors, wins
    if its own beats it, and winners' neighbors are retired through the
    property API.
    """
    view, profile = _simplify(pg)
    in_set, rounds = luby_rounds(view, mis_priorities(pg.n, seed))
    for undecided, _, winner_arcs in rounds:
        profile.add_round(
            units=view.nnz + winner_arcs + PROPERTY_ACCESS_COST * undecided,
            memory_bytes=24.0 * (view.nnz + winner_arcs), skew=0.1)
    return in_set, len(rounds), profile


def cc_sv(pg):
    """Shiloach-Vishkin components through the property records: the
    GAP ``wcc`` loop, but each label read/write is a property access."""
    m = pg.out.n_edges
    comp, rounds = shiloach_vishkin(pg.out.source_ids(), pg.out.col_idx,
                                    pg.n)
    profile = WorkProfile()
    for _ in range(rounds):
        profile.add_round(units=2.0 * m + PROPERTY_ACCESS_COST * pg.n,
                          memory_bytes=24.0 * m, skew=0.05)
    return comp, rounds, profile


def lcc_wedges(pg, batch_rows: int | None = None):
    """Per-vertex clustering via neighborhood wedge checks.

    Work is charged per wedge (ordered neighbor pair), matching the
    vertex-centric implementation that intersects adjacency lists --
    the cost blow-up on dense graphs that makes GraphBIG's dota-league
    LCC the largest number in Table I (1073.7 s).  ``batch_rows``
    (default: min(2048, n)) must tile the matrix or ``ConfigError``.
    """
    lcc, wedges, blocks = clustering_blocks(
        pg.out.source_ids(), pg.out.col_idx, pg.n, batch_rows)
    profile = WorkProfile()
    max_w = float(wedges.max()) if pg.n else 0.0
    for lo, hi in blocks:
        units = float(wedges[lo:hi].sum()) + (hi - lo)
        profile.add_round(units=units, memory_bytes=8.0 * units,
                          skew=min(max_w / max(units, 1.0), 1.0))
    return lcc, profile, {"wedges": float(wedges.sum())}
