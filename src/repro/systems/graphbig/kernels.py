"""GraphBIG vertex-centric kernels.

All kernels operate on the property-graph structure
(:class:`~repro.systems.graphbig.system.PropertyGraph`) through
per-vertex property arrays, in the bulk-synchronous vertex-centric style
of the original benchmark suite: a task queue of active vertices, one
"process vertex" sweep per superstep.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

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


def kcore_props(pg):
    """Level-synchronous k-core peel through the property records.

    GraphBIG keeps the residual degree as a vertex property and sweeps
    a task queue of sub-``k`` vertices per superstep; every peel and
    every neighbor decrement goes through the property API, so the
    per-visit overhead is charged on top of the edge work.  Core
    numbers are unique, so the output matches the other systems bit
    for bit.
    """
    n = pg.n
    view = simple_undirected_view(pg.out.source_ids(), pg.out.col_idx, n)
    profile = WorkProfile()
    profile.add_round(units=pg.out.n_edges + PROPERTY_ACCESS_COST * n,
                      memory_bytes=16.0 * pg.out.n_edges, skew=0.05)
    core = np.zeros(n, dtype=np.int64)
    if n == 0:
        return core, 0, profile
    scratch = scratch_for(pg, n, max(pg.out.n_edges, view.nnz))
    deg = view.degrees.copy()
    alive = np.ones(n, dtype=bool)
    remaining = n
    level = 0
    supersteps = 0
    max_deg = float(deg.max())
    while remaining:
        alive_idx = np.flatnonzero(alive)
        level = max(level, int(deg[alive_idx].min()))
        frontier = alive_idx[deg[alive_idx] <= level]
        while frontier.size:
            supersteps += 1
            core[frontier] = level
            alive[frontier] = False
            remaining -= int(frontier.size)
            gs = gather_slots(view.indptr, frontier, scratch)
            profile.add_round(
                units=gs.total + PROPERTY_ACCESS_COST * frontier.size,
                memory_bytes=32.0 * gs.total,
                skew=min(max_deg / max(gs.total, 1.0), 1.0))
            nbrs = view.indices[gs.slots]
            nbrs = nbrs[alive[nbrs]]
            if nbrs.size == 0:
                break
            ids, cnt = np.unique(nbrs, return_counts=True)
            new_deg = np.maximum(deg[ids] - cnt, level)
            deg[ids] = new_deg
            frontier = ids[new_deg <= level]
    return core, supersteps, profile


def mis_props(pg, priorities: np.ndarray):
    """Pull-based Luby rounds over the vertex property array.

    Each superstep is a full vertex-centric sweep: every undecided
    vertex pulls the minimum priority of its undecided neighbors, wins
    if its own beats it, and winners' neighbors are retired through the
    property API.  Shared seeded ``priorities`` make the rounds
    equivalent to greedy-by-priority, hence identical across systems.
    """
    n = pg.n
    view = simple_undirected_view(pg.out.source_ids(), pg.out.col_idx, n)
    profile = WorkProfile()
    profile.add_round(units=pg.out.n_edges + PROPERTY_ACCESS_COST * n,
                      memory_bytes=16.0 * pg.out.n_edges, skew=0.05)
    in_set = np.zeros(n, dtype=bool)
    if n == 0:
        return in_set, 0, profile
    scratch = scratch_for(pg, n, max(pg.out.n_edges, view.nnz))
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
        ws = gather_slots(view.indptr, np.flatnonzero(winners), scratch)
        decided[view.indices[ws.slots]] = True
        profile.add_round(
            units=view.nnz + ws.total + PROPERTY_ACCESS_COST * undecided,
            memory_bytes=24.0 * (view.nnz + ws.total), skew=0.1)
    return in_set, supersteps, profile


def cc_sv(pg):
    """Shiloach-Vishkin components through the property records.

    Hook + compress like GAP's ``cc``, but each label read/write is a
    property access; converges to minimum-member-id labels (the
    Graphalytics convention), exactly matching :func:`wcc_hashmin` on
    undirected inputs and every other system's ``cc``.
    """
    n = pg.n
    src = pg.out.source_ids()
    dst = pg.out.col_idx
    m = src.size
    comp = np.arange(n, dtype=np.int64)
    profile = WorkProfile()
    rounds = 0
    while True:
        rounds += 1
        low = np.minimum(comp[src], comp[dst])
        new_comp = comp.copy()
        if m:
            np.minimum.at(new_comp, src, low)
            np.minimum.at(new_comp, dst, low)
        new_comp = new_comp[new_comp]
        profile.add_round(units=2.0 * m + PROPERTY_ACCESS_COST * n,
                          memory_bytes=24.0 * m, skew=0.05)
        if np.array_equal(new_comp, comp):
            break
        comp = new_comp
    return comp, rounds, profile


def lcc_wedges(pg, batch_rows: int | None = None):
    """Per-vertex clustering via neighborhood wedge checks.

    Work is charged per wedge (ordered neighbor pair), matching the
    vertex-centric implementation that intersects adjacency lists --
    the cost blow-up on dense graphs that makes GraphBIG's dota-league
    LCC the largest number in Table I (1073.7 s).  ``batch_rows``
    (default: min(2048, n)) must tile the matrix or ``ConfigError``.
    """
    from repro.graph.frontier import resolve_batch_rows

    n = pg.n
    batch_rows = resolve_batch_rows(batch_rows, n)
    src = pg.out.source_ids()
    dst = pg.out.col_idx
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

    tri = np.zeros(n, dtype=np.float64)
    profile = WorkProfile()
    wedge_weights = deg * (deg - 1)
    max_w = float(wedge_weights.max()) if n else 0.0
    for lo in range(0, n, batch_rows):
        hi = min(lo + batch_rows, n)
        block = (und[lo:hi] @ a_dir).multiply(und[lo:hi])
        tri[lo:hi] = np.asarray(block.sum(axis=1)).ravel()
        units = float(wedge_weights[lo:hi].sum()) + (hi - lo)
        profile.add_round(units=units, memory_bytes=8.0 * units,
                          skew=min(max_w / max(units, 1.0), 1.0))

    denom = wedge_weights
    out = np.zeros(n, dtype=np.float64)
    mask = denom > 0
    out[mask] = tri[mask] / denom[mask]
    return out, profile, {"wedges": float(denom.sum())}
