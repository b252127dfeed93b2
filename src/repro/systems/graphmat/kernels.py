"""GraphMat kernels: vertex programs lowered to generalized SpMV.

GraphMat's engine runs each iteration as one SpMV over the appropriate
semiring on the transpose adjacency ``at``, stored doubly compressed
(DCSR), followed by an O(n) apply step.  Work units per iteration
therefore count the nnz the (masked) SpMV touches *plus* a full-vector
term, which is exactly the overhead that makes GraphMat uncompetitive
on small graphs (Sec. IV-A) while scaling beautifully (Fig 5).  That
is what each kernel here prices.  What computes the answer is the one
body of each algorithm in
:mod:`repro.algorithms` -- BFS, Bellman-Ford and hash-min here; CDLP,
LCC, k-core and MIS through :class:`~repro.systems.base.GraphSystem`,
which hands their facts to the pricing functions below -- whose rounds
are the SpMV iterations; only PageRank, whose float32 write-if-changed
sweep is GraphMat's own, multiplies the matrix here.

``at`` is a :class:`~repro.graph.csr.CSRGraph` of the in-arcs, and
DCSR's row index is its :meth:`~repro.graph.csr.CSRGraph.pull_rows`:
the non-empty rows and the first arc of each.  The out-arcs are
``at.transposed()``, ``at`` itself on symmetrized input.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.algorithms.bfs import bfs_rounds
from repro.algorithms.pagerank import check_pagerank_params
from repro.algorithms.sssp import bellman_ford_rounds
from repro.algorithms.wcc import hashmin_rounds
from repro.graph.csr import CSRGraph
from repro.machine.threads import WorkProfile

__all__ = ["bfs_spmv", "sssp_bellman_spmv", "pagerank_float32",
           "wcc_minplus", "cdlp_spmv", "lcc_spmv",
           "kcore_spmv", "mis_spmv"]


def bfs_spmv(at: CSRGraph, out_degrees: np.ndarray, root: int):
    """BFS as repeated OR-AND SpMV with a visited mask, one level per
    iteration of :func:`~repro.algorithms.bfs.bfs_rounds`.

    A level is priced as the masked SpMV over the frontier's columns,
    whichever direction the level loop computed it in.
    """
    n = at.n_vertices
    parent, level, rounds = bfs_rounds(at.transposed(), root)
    profile = WorkProfile()
    max_deg = float(out_degrees.max()) if n else 0.0
    for _, touched in rounds:
        profile.add_round(units=touched + n,
                          memory_bytes=9.0 * touched + 2.0 * n,
                          skew=min(max_deg / max(touched, 1.0), 1.0))
    return parent, level, profile, {"depth": len(rounds)}


def sssp_bellman_spmv(at: CSRGraph, root: int):
    """SSSP as min-plus SpMV iterations with an active set, one per
    round of :func:`~repro.algorithms.sssp.bellman_ford_rounds`.

    An iteration is priced as the masked SpMV over the active columns,
    whether the round pushed along their out-arcs or pulled.
    """
    n = at.n_vertices
    dist, rounds = bellman_ford_rounds(at.transposed(), root)
    profile = WorkProfile()
    for _, touched in rounds:
        profile.add_round(units=touched + n,
                          memory_bytes=20.0 * touched + 8.0 * n,
                          skew=0.15)
    return dist, profile, {"iterations": len(rounds)}


def pagerank_float32(at: CSRGraph, out_degrees: np.ndarray,
                     damping: float, max_iterations: int,
                     epsilon: float = 0.0):
    """GraphMat PageRank: float32, stop when the stored ranks repeat.

    "GraphMat continues to run until none of the vertices' ranks change
    ... effectively its stopping criterion requires the infinity-norm be
    less than machine epsilon" (Fig 4 caption + Sec. IV-A).  Concretely:
    ranks are single precision, and the vertex program's apply step only
    *stores* a new rank when it differs from the old one by at least a
    single-precision ulp (write-if-changed -- the vertex-program idiom
    that also drives the engine's convergence detection).  Reaching
    per-vertex relative deltas below ~1.2e-7 takes far more sweeps than
    the homogenized L1 < 6e-8 criterion the other systems use -- the
    Fig 4 iteration gap.

    The engine stops at the first sweep whose stored vector equals one
    an earlier sweep stored, and reports that sweep.  A sweep that
    stores nothing repeats the previous vector: the fixpoint.  But
    float32 rounding can also leave a few vertices toggling by more
    than an ulp forever (Kronecker scale 13, seed 7 repeats sweep 33 at
    sweep 35), and no later sweep stores nothing.  The sweep is a
    deterministic map of the stored vector, so a repeat is a true
    cycle: nothing after it is new.  A run that reaches the fixpoint
    never repeats before it, so its ranks and count are unchanged.  Only
    a digest of each stored vector is kept.

    ``epsilon`` is accepted for interface homogeneity, checked like the
    other systems' and otherwise unused: "with GraphMat there is no
    computation of |p_k - p_k'|" (Sec. IV-A).
    """
    check_pagerank_params(damping, epsilon, max_iterations)
    n = at.n_vertices
    out_deg = out_degrees.astype(np.float32)
    dangling = out_deg == 0
    inv_out = np.zeros(n, dtype=np.float32)
    inv_out[~dangling] = np.float32(1.0) / out_deg[~dangling]
    rank = np.full(n, np.float32(1.0 / n), dtype=np.float32)
    base = np.float32((1.0 - damping) / n)
    d32 = np.float32(damping)
    flt_eps = np.float32(np.finfo(np.float32).eps)
    nnz = at.n_edges
    profile = WorkProfile()
    iterations = max_iterations
    seen = {_digest(rank)}
    for it in range(1, max_iterations + 1):
        contrib = _pattern_spmv(at, (rank * inv_out).astype(np.float32))
        dangling_mass = np.float32(rank[dangling].sum() / n)
        new_rank = (base + d32 * (contrib + dangling_mass)
                    ).astype(np.float32)
        # Write-if-changed: drop sub-ulp updates (relative to the stored
        # value) instead of storing them.
        changed = np.abs(new_rank - rank) > flt_eps * np.abs(rank)
        profile.add_round(units=nnz + n,
                          memory_bytes=12.0 * nnz + 12.0 * n, skew=0.05)
        rank = np.where(changed, new_rank, rank)
        key = _digest(rank)
        if key in seen:
            iterations = it
            break
        seen.add(key)
    return rank.astype(np.float64), iterations, profile


def _pattern_spmv(at: CSRGraph, x: np.ndarray) -> np.ndarray:
    """``y[r] = sum of x[c]`` over row ``r``'s arcs, every stored entry
    read as 1 (the unweighted vertex program, even on a weighted
    matrix), in ``x``'s dtype: one sum per DCSR row
    (:meth:`~repro.graph.csr.CSRGraph.pull_rows`), added in arc order;
    empty rows stay zero."""
    rows, starts = at.pull_rows()
    y = np.zeros(at.n_vertices, dtype=x.dtype)
    if rows.size:
        y[rows] = np.add.reduceat(x[at.col_idx], starts)
    return y


def _digest(values: np.ndarray) -> bytes:
    # SHA-256, not BLAKE2b: 15 vs 38 us per 16 kB vector on an x86 core
    # with SHA extensions, paid once per sweep.
    return hashlib.sha256(values).digest()


def wcc_minplus(at: CSRGraph):
    """Connected components as min-selection SpMV until fixpoint.

    GraphMat's CC vertex program gathers along in- and out-edges, so
    callers pass the symmetrized matrix, which is its own transpose:
    :func:`~repro.algorithms.wcc.hashmin_rounds` pulls over its rows
    once per iteration, and directed inputs still produce *weak*
    components."""
    n = at.n_vertices
    labels, rounds = hashmin_rounds(at)
    profile = WorkProfile()
    nnz = at.n_edges
    for _ in rounds:
        profile.add_round(units=nnz + n,
                          memory_bytes=16.0 * nnz + 8.0 * n, skew=0.05)
    return labels, len(rounds), profile


def cdlp_spmv(data, iterations: int) -> tuple[WorkProfile, int]:
    """CDLP: the mode-of-neighbor-labels step does not fit a semiring,
    so GraphMat's vertex program materializes per-vertex label
    multisets -- reflected here in the heavy per-iteration anchor."""
    at = data.at
    profile = WorkProfile()
    for _ in range(iterations):
        profile.add_round(units=at.n_edges + at.n_vertices,
                          memory_bytes=40.0 * at.n_edges, skew=0.08)
    return profile, iterations


def _view_profile(at: CSRGraph) -> WorkProfile:
    """A profile whose first round is the pass over ``at`` that builds
    the simple view k-core and MIS are defined on (GraphMat stores the
    matrix as given, self-loops and duplicates included)."""
    profile = WorkProfile()
    profile.add_round(units=at.n_edges + at.n_vertices,
                      memory_bytes=16.0 * at.n_edges, skew=0.05)
    return profile


def kcore_spmv(data, view: CSRGraph, rounds: list
               ) -> tuple[WorkProfile, int]:
    """k-core as repeated degree-count SpMV plus a threshold apply.

    Every superstep recounts live degrees with one SpMV over the live
    columns and peels everything at or under the current level in the
    apply step -- full-sweep bulk-synchronous, the GraphMat shape (no
    bucket queue; the ``n``-term per sweep is what the calibration
    prices).  A superstep per round of
    :func:`~repro.algorithms.kcore.peel_cores`, plus the one whose
    recount finds a level exhausted, after every level but the last;
    each touches the live columns, ``view.n_edges`` minus the arcs
    peeled before it.
    """
    profile = _view_profile(data.at)
    n = data.at.n_vertices
    nnz = view.n_edges
    steps = []
    alive = nnz
    for i, (_, arcs, level) in enumerate(rounds):
        if i and level != rounds[i - 1][2]:
            steps.append(alive)
        steps.append(alive)
        alive -= arcs
    for alive in steps:
        profile.add_round(units=alive + n,
                          memory_bytes=12.0 * nnz + 8.0 * n, skew=0.05)
    return profile, len(steps)


def mis_spmv(data, view: CSRGraph, rounds: list
             ) -> tuple[WorkProfile, int]:
    """MIS as min-gather SpMV rounds with an OR-AND knockout step.

    Each round of :func:`~repro.algorithms.mis.luby_rounds` is priced as
    two whole-matrix SpMVs: a min-gather of the undecided neighbors'
    priorities, then an OR-AND over the winner mask that retires their
    neighbors.
    """
    profile = _view_profile(data.at)
    n = data.at.n_vertices
    nnz = view.n_edges
    for _ in rounds:
        profile.add_round(units=2.0 * nnz + n,
                          memory_bytes=20.0 * nnz + 8.0 * n, skew=0.05)
    return profile, len(rounds)


def lcc_spmv(data, wedges: np.ndarray, blocks: list
             ) -> tuple[WorkProfile, None]:
    """LCC via masked sparse-matrix products (SpGEMM on the pattern),
    one row tile per round."""
    profile = WorkProfile()
    for lo, hi in blocks:
        units = float(wedges[lo:hi].sum()) + (hi - lo)
        profile.add_round(units=units, memory_bytes=8.0 * units, skew=0.3)
    return profile, None
