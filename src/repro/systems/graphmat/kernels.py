"""GraphMat kernels: vertex programs lowered to generalized SpMV.

Each iteration is one SpMV over the appropriate semiring on the DCSR
transpose adjacency, followed by an O(n) apply step -- the
bulk-synchronous structure GraphMat's engine executes.  Work units per
iteration therefore count the nnz touched *plus* a full-vector term,
which is exactly the overhead that makes GraphMat uncompetitive on
small graphs (Sec. IV-A) while scaling beautifully (Fig 5).  SSSP and
BFS *execute* an iteration whose active set owns few arcs as a push
along those arcs instead of a whole-matrix SpMV; it is priced as the
masked SpMV either way.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.lcc import clustering_blocks
from repro.algorithms.pagerank import check_pagerank_params
from repro.algorithms.sssp import check_sssp_weights
from repro.graph.dcsr import DCSRMatrix
from repro.graph.frontier import (PULL_SHARE, first_parent_candidates,
                                  gather_slots, relax_round)
from repro.graph.scratch import scratch_for
from repro.machine.threads import WorkProfile

__all__ = ["bfs_spmv", "sssp_bellman_spmv", "pagerank_float32",
           "wcc_minplus", "cdlp_spmv", "lcc_spmv",
           "kcore_spmv", "mis_spmv", "simple_pattern_matrix"]


def _active_nnz(at: DCSRMatrix, active_mask: np.ndarray) -> float:
    """nnz of the columns selected by ``active_mask`` (the work a masked
    SpMV performs when the frontier is sparse)."""
    # Column-count view: at holds A^T, so columns of A^T = rows of A.
    return float(at.col_nnz()[active_mask].sum())


def _directions(at: DCSRMatrix, symmetric: bool):
    """``(out, inn)`` CSRs over ``at``'s arrays: ``at`` holds the
    in-arcs, and on symmetrized (undirected) input it is its own
    transpose; otherwise the out-arcs are its transpose, built once and
    memoized on the matrix."""
    inn = at.csr_view()
    return (inn if symmetric else inn.transposed()), inn


def bfs_spmv(at: DCSRMatrix, out_degrees: np.ndarray, root: int,
             symmetric: bool = False):
    """BFS as repeated OR-AND SpMV with a visited mask.

    A level whose frontier owns under :data:`PULL_SHARE` of the arcs
    expands their out-arcs instead of multiplying the whole matrix; both
    find the same vertices and the same lowest frontier in-neighbour,
    and the level is priced the same either way.
    """
    n = at.n
    scratch = scratch_for(at, n, at.nnz)
    out, inn = _directions(at, symmetric)
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    level[root] = 0
    visited = np.zeros(n, dtype=bool)
    visited[root] = True
    frontier = np.array([root], dtype=np.int64)
    profile = WorkProfile()
    depth = 0
    max_deg = float(out_degrees.max()) if n else 0.0

    while frontier.size:
        depth += 1
        touched = float(at.col_nnz()[frontier].sum())
        if touched < PULL_SHARE * at.nnz:
            gs = gather_slots(out.row_ptr, frontier, scratch)
            new_ids, parents = first_parent_candidates(
                out.col_idx[gs.slots], np.repeat(frontier, gs.counts),
                visited, scratch)
        else:
            new_ids, parents = _pull_parents(at, inn, frontier, visited,
                                             scratch)
        profile.add_round(units=touched + n,
                          memory_bytes=9.0 * touched + 2.0 * n,
                          skew=min(max_deg / max(touched, 1.0), 1.0))
        if not new_ids.size:
            break
        parent[new_ids] = parents
        level[new_ids] = depth
        visited[new_ids] = True
        frontier = new_ids
    return parent, level, profile, {"depth": depth}


def _pull_parents(at: DCSRMatrix, inn, frontier: np.ndarray,
                  visited: np.ndarray, scratch):
    """A dense BFS level: one OR-AND SpMV finds the unvisited vertices
    with a frontier in-neighbour, the apply step takes the lowest."""
    in_frontier = np.zeros(at.n, dtype=bool)
    in_frontier[frontier] = True
    new_ids = np.flatnonzero(at.spmv_or_and(in_frontier) & ~visited)
    if not new_ids.size:
        return new_ids, new_ids
    # Every new vertex was reached through an in-edge, so its segment
    # in the slot expansion of the in-rows is non-empty.
    gs = gather_slots(inn.row_ptr, new_ids, scratch)
    nbrs = inn.col_idx[gs.slots]
    # Non-frontier neighbors get an n sentinel; every new vertex has at
    # least one frontier in-neighbor, so the minimum is valid.
    vals = np.where(in_frontier[nbrs], nbrs, at.n)
    return new_ids, np.minimum.reduceat(vals, gs.offsets)


def sssp_bellman_spmv(at: DCSRMatrix, root: int, symmetric: bool = False):
    """SSSP as min-plus SpMV iterations with an active set.

    An iteration whose active vertices own under :data:`PULL_SHARE` of
    the arcs pushes along their out-arcs instead of multiplying the
    whole matrix (:func:`~repro.graph.frontier.relax_round`); the same
    distances come out and the iteration is priced the same either way.
    """
    check_sssp_weights(at.values)
    n = at.n
    scratch = scratch_for(at, n, at.nnz)
    out, inn = _directions(at, symmetric)
    dist = np.full(n, np.inf)
    dist[root] = 0.0
    active = np.array([root], dtype=np.int64)
    profile = WorkProfile()
    iterations = 0
    while active.size:
        iterations += 1
        active, examined = relax_round(out, inn, active, dist, dist,
                                       scratch)
        touched = float(examined)
        profile.add_round(units=touched + n,
                          memory_bytes=20.0 * touched + 8.0 * n,
                          skew=0.15)
    return dist, profile, {"iterations": iterations}


def pagerank_float32(at: DCSRMatrix, out_degrees: np.ndarray,
                     damping: float, max_iterations: int,
                     epsilon: float = 0.0):
    """GraphMat PageRank: float32, stop when no rank visibly changes.

    "GraphMat continues to run until none of the vertices' ranks change
    ... effectively its stopping criterion requires the infinity-norm be
    less than machine epsilon" (Fig 4 caption + Sec. IV-A).  Concretely:
    ranks are single precision, and the vertex program's apply step only
    *stores* a new rank when it differs from the old one by at least a
    single-precision ulp (write-if-changed -- the vertex-program idiom
    that also drives the engine's convergence detection).  The engine
    stops when a sweep stores nothing.  Freezing is monotone (a frozen
    state reproduces itself exactly), so no float32 limit cycles, and
    reaching per-vertex relative deltas below ~1.2e-7 takes far more
    sweeps than the homogenized L1 < 6e-8 criterion the other systems
    use -- the Fig 4 iteration gap.

    ``epsilon`` is accepted for interface homogeneity, checked like the
    other systems' and otherwise unused: "with GraphMat there is no
    computation of |p_k - p_k'|" (Sec. IV-A).
    """
    check_pagerank_params(damping, epsilon, max_iterations)
    n = at.n
    out_deg = out_degrees.astype(np.float32)
    dangling = out_deg == 0
    inv_out = np.zeros(n, dtype=np.float32)
    inv_out[~dangling] = np.float32(1.0) / out_deg[~dangling]
    rank = np.full(n, np.float32(1.0 / n), dtype=np.float32)
    base = np.float32((1.0 - damping) / n)
    d32 = np.float32(damping)
    flt_eps = np.float32(np.finfo(np.float32).eps)
    nnz = at.nnz
    profile = WorkProfile()
    iterations = max_iterations
    for it in range(1, max_iterations + 1):
        contrib = at.spmv_plus_times((rank * inv_out).astype(np.float32),
                                     pattern_only=True)
        dangling_mass = np.float32(rank[dangling].sum() / n)
        new_rank = (base + d32 * (contrib.astype(np.float32)
                                  + dangling_mass)).astype(np.float32)
        # Write-if-changed: drop sub-ulp updates (relative to the stored
        # value) instead of storing them.
        changed = np.abs(new_rank - rank) > flt_eps * np.abs(rank)
        profile.add_round(units=nnz + n,
                          memory_bytes=12.0 * nnz + 12.0 * n, skew=0.05)
        if not changed.any():
            iterations = it
            break
        rank = np.where(changed, new_rank, rank)
    return rank.astype(np.float64), iterations, profile


def wcc_minplus(at: DCSRMatrix):
    """Connected components as min-selection SpMV until fixpoint.

    Uses the symmetrized pattern implied by running on both A^T and the
    apply step keeping the running minimum, so directed inputs still
    produce *weak* components (GraphMat's CC vertex program gathers
    along in- and out-edges; callers pass the symmetrized matrix)."""
    n = at.n
    labels = np.arange(n, dtype=np.float64)
    profile = WorkProfile()
    nnz = at.nnz
    rounds = 0
    while True:
        rounds += 1
        gathered = at.spmv_min_plus(labels)  # values are 0 -> min gather
        new_labels = np.minimum(labels, gathered)
        profile.add_round(units=nnz + n,
                          memory_bytes=16.0 * nnz + 8.0 * n, skew=0.05)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels.astype(np.int64), rounds, profile


def cdlp_spmv(at: DCSRMatrix, iterations: int):
    """CDLP: the mode-of-neighbor-labels step does not fit a semiring,
    so GraphMat's vertex program materializes per-vertex label
    multisets -- reflected here in the heavy per-iteration anchor."""
    from repro.algorithms.cdlp import propagate_labels_once

    n = at.n
    src = at.col_idx          # A^T entries: (row=dst, col=src) of A
    dst = at.row_sources()
    labels = np.arange(n, dtype=np.int64)
    nnz = at.nnz
    profile = WorkProfile()
    for _ in range(iterations):
        labels = propagate_labels_once(src, dst, labels, n)
        profile.add_round(units=nnz + n, memory_bytes=40.0 * nnz,
                          skew=0.08)
    return labels, iterations, profile


def simple_pattern_matrix(at: DCSRMatrix) -> DCSRMatrix:
    """Simple undirected pattern DCSR for the structural kernels.

    ``at_sym`` keeps self-loops and duplicate arcs (GraphMat stores the
    matrix as given), but k-core and MIS are defined on the *simple*
    view -- so those vertex programs start from a loop-free,
    deduplicated, symmetric pattern matrix.  No values are attached:
    zero-valued entries make ``spmv_min_plus`` a pure min-gather and
    ``pattern_only`` SpMVs count neighbors.
    """
    from repro.graph.csr import CSRGraph
    from repro.graph.simple import simple_undirected_view

    view = simple_undirected_view(at.row_sources(), at.col_idx, at.n)
    u_src, u_dst = view.to_edge_arrays()
    # Symmetric pattern: the matrix is its own transpose.
    return DCSRMatrix.from_csr(CSRGraph.from_arrays(u_src, u_dst, at.n))


def kcore_spmv(at: DCSRMatrix):
    """k-core as repeated degree-count SpMV plus a threshold apply.

    Every superstep recounts live degrees with one ``pattern_only``
    SpMV over the live mask and peels everything at or under the
    current level in the apply step -- full-sweep bulk-synchronous, the
    GraphMat shape (no bucket queue; the ``n``-term per sweep is what
    the calibration prices).  Produces the unique Matula-Beck core
    numbers, bit-identical to the peeling systems.
    """
    und = simple_pattern_matrix(at)
    n = at.n
    profile = WorkProfile()
    profile.add_round(units=at.nnz + n, memory_bytes=16.0 * at.nnz,
                      skew=0.05)
    core = np.zeros(n, dtype=np.int64)
    if n == 0:
        return core, 0, profile
    nnz = und.nnz
    alive = np.ones(n, dtype=bool)
    remaining = n
    level = 0
    supersteps = 0
    cur_deg = und.spmv_plus_times(alive.astype(np.float64),
                                  pattern_only=True)
    while remaining:
        level = max(level, int(cur_deg[alive].min()))
        while True:
            supersteps += 1
            peel = alive & (cur_deg <= level)
            profile.add_round(units=_active_nnz(und, alive) + n,
                              memory_bytes=12.0 * nnz + 8.0 * n,
                              skew=0.05)
            if not peel.any():
                break
            core[peel] = level
            alive[peel] = False
            remaining -= int(peel.sum())
            if remaining == 0:
                break
            cur_deg = und.spmv_plus_times(alive.astype(np.float64),
                                          pattern_only=True)
    return core, supersteps, profile


def mis_spmv(at: DCSRMatrix, priorities: np.ndarray):
    """MIS as min-gather SpMV rounds with an OR-AND knockout step.

    One ``spmv_min_plus`` over the masked priority vector finds each
    vertex's best undecided neighbor (empty rows gather ``inf``, so
    isolated or fully-decided neighborhoods win outright); one
    ``spmv_or_and`` over the winner mask retires their neighbors.
    Shared seeded priorities pin the unique greedy result.
    """
    und = simple_pattern_matrix(at)
    n = at.n
    profile = WorkProfile()
    profile.add_round(units=at.nnz + n, memory_bytes=16.0 * at.nnz,
                      skew=0.05)
    in_set = np.zeros(n, dtype=bool)
    if n == 0:
        return in_set, 0, profile
    pr = np.asarray(priorities, dtype=np.float64)
    decided = np.zeros(n, dtype=bool)
    nnz = und.nnz
    rounds = 0
    while not decided.all():
        rounds += 1
        masked = np.where(decided, np.inf, pr)
        best = und.spmv_min_plus(masked)
        winners = ~decided & (pr < best)
        in_set |= winners
        reached = und.spmv_or_and(winners)
        decided |= winners | reached
        profile.add_round(units=2.0 * nnz + n,
                          memory_bytes=20.0 * nnz + 8.0 * n, skew=0.05)
    return in_set, rounds, profile


def lcc_spmv(at: DCSRMatrix, batch_rows: int | None = None):
    """LCC via masked sparse-matrix products (SpGEMM on the pattern),
    one row tile per round.

    ``batch_rows`` (default: min(2048, n)) is the row-tile width;
    out-of-range values raise ``ConfigError``.
    """
    # The directed adjacency A is the transpose of the stored A^T.
    lcc, wedges, blocks = clustering_blocks(at.col_idx, at.row_sources(),
                                            at.n, batch_rows)
    profile = WorkProfile()
    for lo, hi in blocks:
        units = float(wedges[lo:hi].sum()) + (hi - lo)
        profile.add_round(units=units, memory_bytes=8.0 * units, skew=0.3)
    return lcc, profile, {"wedges": float(wedges.sum())}
