"""Incremental kernels: repair BFS / SSSP / PageRank across a batch.

The streaming scenario family (``repro.streaming``, docs/streaming.md)
applies :class:`~repro.graph.dynamic.MutationBatch` deltas and asks the
kernels to *repair* their previous answer instead of recomputing from
scratch.  The contracts, enforced by ``benchmarks/bench_stream.py``:

* :class:`IncrementalBFS` and :class:`IncrementalSSSP` produce arrays
  **bit-identical** to the from-scratch references
  (:func:`~repro.algorithms.bfs.bfs_parents`,
  :func:`~repro.algorithms.sssp.sssp_dijkstra`) on the post-batch
  snapshot.  Both references have mathematically unique outputs: BFS
  levels are hop distances and its parent rule is "minimum id among
  in-neighbors one level up"; Dijkstra's float distances satisfy
  ``d[v] = min over in-arcs of fl(d[u] + w)`` regardless of relaxation
  order (``fl(a + b) >= a`` for ``b >= 0``, and the repair performs the
  same double-precision additions).

* :class:`IncrementalPageRank` warm-starts power iteration from the
  pre-mutation vector under the paper's L1 stopping criterion.  Bitwise
  identity is **not** achievable here -- the eps-ball around the true
  fixed point contains many bitwise-distinct stopping points, and which
  one an iteration lands on depends on its starting vector -- so the
  contract is the provable contraction bound instead: both warm and
  cold results lie within ``eps * damping / (1 - damping)`` (L1) of the
  true fixed point, hence within twice that of each other
  (:func:`pagerank_l1_bound`).  The gate asserts the bound and records
  the measured distance.

Deletion repair is Ramalingam-Reps style: arcs whose removal cuts a
shortest-path-tree link orphan the cut vertex's whole tree subtree;
orphans are unsettled and re-settled -- together with insertion-improved
vertices -- by frontier rounds of the cold kernels' own relaxation
(:func:`~repro.graph.frontier.relax_round`, which pushes a small round
and pulls a wide one over the transpose the repair already holds) over
the affected region only, whose fixed point is the same whatever the
order.  BFS is that one repair with every arc adding 1: its hop counts
are ``float64`` during the repair, exact far past any vertex count.
Vertices outside the affected region keep their answer: a non-orphan's
parent chain is intact, so its distance cannot increase, and any
decrease must travel through an inserted arc or a repaired vertex, both
of which seed or relax the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.bfs import bfs_parents
from repro.algorithms.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    pagerank,
)
from repro.algorithms.sssp import sssp_dijkstra
from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import AppliedBatch
from repro.graph.frontier import (
    dedup_ids,
    gather_slots,
    relax_round,
    segment_min_scatter,
    sorted_unique,
)
from repro.graph.scratch import scratch_for

__all__ = ["IncrementalBFS", "IncrementalSSSP", "IncrementalPageRank",
           "RepairStats", "pagerank_warm", "pagerank_l1_bound"]


@dataclass(frozen=True)
class RepairStats:
    """What one :meth:`update` actually did (deterministic counters)."""

    #: Vertices whose shortest-path-tree parent arc the batch removed.
    n_cut: int
    #: Tree descendants of the cut vertices (unsettled for repair).
    n_orphaned: int
    #: Vertices (re)settled by the affected-region pass, each counted
    #: once however many times its distance dropped on the way.
    n_resettled: int


def _tree_descendants(graph: CSRGraph, parent: np.ndarray,
                      seeds: np.ndarray, scratch) -> np.ndarray:
    """Sorted unique tree-descendant closure of ``seeds`` (inclusive).

    Walks the shortest-path tree *downward over the post-batch
    adjacency*: ``u`` is a tree child of ``v`` iff ``parent[u] == v``
    and the arc ``(v, u)`` survives.  A child whose tree arc the batch
    removed is itself in the cut seed set (that is what cut detection
    finds), so the walk misses nothing -- and its cost is proportional
    to the subtree's out-degree sum, not the whole tree (repairing a
    small batch must not pay an ``O(n log n)`` children-sort; the
    stream gate times exactly this).
    """
    if seeds.size == 0:
        return seeds
    out = [seeds]
    frontier = seeds
    while frontier.size:
        gs = gather_slots(graph.row_ptr, frontier, scratch)
        if gs.total == 0:
            break
        nbrs = graph.col_idx[gs.slots]
        srcs = np.repeat(frontier, gs.counts)
        # Each vertex has one parent, so children are duplicate-free.
        frontier = nbrs[parent[nbrs] == srcs]
        if frontier.size:
            out.append(frontier)
    return dedup_ids(np.concatenate(out), graph.n_vertices, scratch)


def _segmented_min(values: np.ndarray, offsets: np.ndarray,
                   counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment minimum; returns (mins over non-empty, non-empty mask)."""
    nonempty = counts > 0
    if not nonempty.any():
        return np.empty(0, dtype=values.dtype), nonempty
    return np.minimum.reduceat(values, offsets[nonempty]), nonempty


def _cut_and_orphan(graph: CSRGraph, applied: AppliedBatch,
                    parent: np.ndarray, root: int, dist: np.ndarray):
    """Steps 1-2 of a repair: find the vertices whose tree arc the batch
    removed and set their whole tree subtrees unreached (``inf``).

    Returns ``(cut, orphans, rev, scratch, rscratch)``: the transpose
    and the two scratch arenas are what the rest of the repair gathers
    through.
    """
    n = graph.n_vertices
    rd = applied.removed_dst
    cut = sorted_unique(
        rd[(parent[rd] == applied.removed_src) & (rd != root)])
    rev = graph.transposed()
    # A snapshot of a symmetrized stream is its own transpose, so
    # ``rev is graph`` and the two arenas are one.  That is safe: each
    # gather's slots, counts and offsets are read to the end (or copied
    # by fancy indexing) before the repair gathers again, from either
    # arena, so no view of one is live while the other is written.
    scratch = scratch_for(graph, n, graph.n_edges)
    rscratch = scratch_for(rev, n, rev.n_edges)
    orphans = _tree_descendants(graph, parent, cut, scratch)
    dist[orphans] = np.inf
    return cut, orphans, rev, scratch, rscratch


def _gained_witnesses(graph: CSRGraph, scratch, parent: np.ndarray,
                      dist: np.ndarray, fin: np.ndarray, is_witness,
                      applied: AppliedBatch, inserted_lengths: np.ndarray,
                      root: int) -> None:
    """Lower ``parent[v]`` to every witness ``v`` gained: an out-arc of
    a reached moved vertex ``fin`` or an inserted arc.  A vertex whose
    distance held keeps its old parent as a witness (an orphaned parent
    or a removed tree arc would have orphaned it; a parent whose
    distance dropped still sums to the held distance), and every
    witness it kept is no lower, so this minimum is its new parent.
    Moved vertices are left to :func:`_recompute_parents`, run after."""
    gs = gather_slots(graph.row_ptr, fin, scratch)
    nbrs = graph.col_idx[gs.slots]
    srcs = np.repeat(fin, gs.counts)
    ok = is_witness(graph, srcs, nbrs, gs.slots)
    cand = dist[applied.inserted_src] + inserted_lengths
    ins = np.isfinite(cand) & (cand == dist[applied.inserted_dst])
    v = np.concatenate([nbrs[ok], applied.inserted_dst[ins]])
    u = np.concatenate([srcs[ok], applied.inserted_src[ins]])
    np.minimum.at(parent, v[v != root], u[v != root])


def _recompute_parents(rev: CSRGraph, rscratch, parent: np.ndarray,
                       verts: np.ndarray, reached: np.ndarray,
                       is_witness, what: str) -> None:
    """``parent[v] = min{u in in(v): is_witness(rev, u, v, slot)}`` for
    the ``reached`` among ``verts``, ``-1`` for the others."""
    parent[verts[~reached]] = -1
    fin = verts[reached]
    if fin.size == 0:
        return
    gs = gather_slots(rev.row_ptr, fin, rscratch)
    n = parent.size
    innb = rev.col_idx[gs.slots]
    ok = is_witness(rev, innb, np.repeat(fin, gs.counts), gs.slots)
    mins, nonempty = _segmented_min(np.where(ok, innb, np.int64(n)),
                                    gs.offsets, gs.counts)
    if (~nonempty).any() or (mins >= n).any():
        raise ValidationError(
            f"{what} repair: reached vertex lost every parent witness")
    parent[fin] = mins


class _PathRepair:
    """The one repair both path kernels run, over ``dist`` (``float64``,
    ``inf`` unreached) and ``parent`` (the minimum-id supporter of every
    finite non-root vertex, ``-1`` unreached, ``parent[root] == root``).

    A subclass names what an arc adds in ``_adds``, as
    :func:`~repro.graph.frontier.relax_round` takes it: ``None`` for the
    arc's weight, else a number every arc adds.
    """

    _adds: float | None = None

    def _lengths(self, csr: CSRGraph) -> np.ndarray:
        if self._adds is None:
            return csr.weights
        return np.broadcast_to(self._adds, (csr.n_edges,))

    def _supports(self, csr, u, v, slots):
        """Exact float equality: both sides are the same double sums."""
        return self.dist[u] + self._lengths(csr)[slots] == self.dist[v]

    def _repair(self, graph: CSRGraph, applied: AppliedBatch
                ) -> RepairStats:
        dist, parent = self.dist, self.parent
        inserted_lengths = (
            applied.inserted_weights if self._adds is None
            else np.full(applied.inserted_dst.size, self._adds))
        cut, orphans, rev, scratch, rscratch = _cut_and_orphan(
            graph, applied, parent, self.root, dist)

        # Seeds: each orphan's best still-settled in-neighbor, then
        # every inserted arc that improves its target.
        seeds = []
        gs = gather_slots(rev.row_ptr, orphans, rscratch)
        if gs.total:
            cand = (dist[rev.col_idx[gs.slots]]
                    + self._lengths(rev)[gs.slots])
            mins, nonempty = _segmented_min(cand, gs.offsets, gs.counts)
            finite = np.isfinite(mins)
            seeds.append(segment_min_scatter(
                dist, orphans[nonempty][finite], mins[finite], scratch))
        cand = dist[applied.inserted_src] + inserted_lengths
        better = cand < dist[applied.inserted_dst]
        seeds.append(segment_min_scatter(
            dist, applied.inserted_dst[better], cand[better], scratch))

        # Relaxation rounds over the affected region: the round the
        # cold kernels run (``LocalSweeps.relax``).  The order is
        # immaterial for the final floats (see the module docstring);
        # strict ``<`` and non-negative lengths end it.
        n = dist.size
        rounds = [dedup_ids(np.concatenate(seeds), n, scratch)]
        while rounds[-1].size:
            rounds.append(relax_round(graph, rev, rounds[-1], dist, dist,
                                      scratch, adds=self._adds)[0])

        # Re-settled = distance dropped, however many times: what a
        # monotone Dijkstra pass over the region settles exactly once.
        touched = dedup_ids(np.concatenate(rounds), n, scratch)
        moved = dedup_ids(np.concatenate([orphans, touched]), n, scratch)
        # Held vertices take the minimum with the witnesses they
        # gained; only ``moved`` rescans its in-arcs.
        reached = np.isfinite(dist[moved])
        _gained_witnesses(graph, scratch, parent, dist, moved[reached],
                          self._supports, applied, inserted_lengths,
                          self.root)
        _recompute_parents(rev, rscratch, parent, moved, reached,
                           self._supports, type(self).__name__)

        self.graph = graph
        return RepairStats(n_cut=int(cut.size),
                           n_orphaned=int(orphans.size),
                           n_resettled=int(touched.size))


class IncrementalBFS(_PathRepair):
    """Dynamic BFS repair; state bit-identical to :func:`bfs_parents`.

    Attributes ``parent`` and ``level`` always equal the from-scratch
    arrays for the current snapshot (``-1`` marks unreached,
    ``parent[root] == root``).  An update repairs hop counts as
    distances over unit arc lengths, read back from ``level``; the
    minimum-id supporter one level up is the claim-first-parent winner
    of the reference BFS.
    """

    _adds = 1.0

    def __init__(self, graph: CSRGraph, root: int):
        self.root = int(root)
        self.parent, self.level = bfs_parents(graph, self.root)
        self.graph = graph

    def update(self, graph: CSRGraph,
               applied: AppliedBatch) -> RepairStats:
        """Repair across one applied batch; ``graph`` is the post-batch
        snapshot."""
        self.dist = np.where(self.level >= 0, self.level, np.inf)
        stats = self._repair(graph, applied)
        finite = np.isfinite(self.dist)
        self.level = np.where(finite, self.dist, -1).astype(np.int64)
        return stats


class IncrementalSSSP(_PathRepair):
    """Dynamic SSSP repair; ``dist`` bit-identical to
    :func:`sssp_dijkstra` on the current snapshot.

    ``parent`` holds, for every finite non-root vertex, the minimum-id
    *supporter* ``u`` with ``fl(dist[u] + w(u, v)) == dist[v]`` -- the
    invariant cut detection needs (a removed arc can only invalidate
    ``dist[v]`` by removing its support; any surviving supporter keeps
    the old distance valid).
    """

    def __init__(self, graph: CSRGraph, root: int):
        if graph.weights is None:
            raise ValidationError(
                "incremental SSSP requires a weighted graph")
        self.root = int(root)
        self.dist = sssp_dijkstra(graph, self.root)
        self.parent = np.full(graph.n_vertices, -1, dtype=np.int64)
        self.parent[self.root] = self.root
        fin = np.flatnonzero(np.isfinite(self.dist))
        fin = fin[fin != self.root]
        rev = graph.transposed()
        _recompute_parents(
            rev, scratch_for(rev, graph.n_vertices, rev.n_edges),
            self.parent, fin, np.ones(fin.size, dtype=bool),
            self._supports, "SSSP")
        self.graph = graph

    def update(self, graph: CSRGraph,
               applied: AppliedBatch) -> RepairStats:
        # NaN fails ``>=`` too.  Checked before any state is touched:
        # the relaxation rounds only terminate on ``w >= 0``.
        if not (applied.inserted_weights >= 0).all():
            raise ValidationError(
                "incremental SSSP requires non-negative weights")
        return self._repair(graph, applied)


def pagerank_warm(graph: CSRGraph, rank0: np.ndarray,
                  damping: float = DEFAULT_DAMPING,
                  epsilon: float = DEFAULT_EPSILON,
                  max_iterations: int = DEFAULT_MAX_ITERATIONS,
                  ) -> tuple[np.ndarray, int]:
    """Power iteration warm-started from ``rank0``: the cold kernel's
    own loop from another starting vector, so the contraction bound of
    :func:`pagerank_l1_bound` applies to the pair of results."""
    return pagerank(graph, damping, epsilon, max_iterations, rank0=rank0)


def pagerank_l1_bound(damping: float = DEFAULT_DAMPING,
                      epsilon: float = DEFAULT_EPSILON) -> float:
    """Maximum L1 distance between two converged PageRank runs.

    The power-iteration map contracts L1 distances by ``damping``, so a
    run stopping when its step shrinks below ``epsilon`` is within
    ``epsilon * damping / (1 - damping)`` of the true fixed point;
    two such runs are within twice that of each other.
    """
    return 2.0 * epsilon * damping / (1.0 - damping)


class IncrementalPageRank:
    """Warm-started PageRank over mutation batches.

    ``rank`` converges to the paper's L1 criterion on every snapshot;
    ``iterations`` is the sweep count of the last update (the warm
    start's entire saving -- the per-sweep cost is unchanged).
    """

    def __init__(self, graph: CSRGraph,
                 damping: float = DEFAULT_DAMPING,
                 epsilon: float = DEFAULT_EPSILON,
                 max_iterations: int = DEFAULT_MAX_ITERATIONS):
        self.damping = damping
        self.epsilon = epsilon
        self.max_iterations = max_iterations
        self.rank, self.iterations = pagerank(
            graph, damping=damping, epsilon=epsilon,
            max_iterations=max_iterations)
        self.graph = graph

    def update(self, graph: CSRGraph,
               applied: AppliedBatch | None = None) -> int:
        """Re-converge on the post-batch snapshot; returns iterations.

        ``applied`` is accepted for interface symmetry; the warm start
        uses only the previous vector.  Rank mass moves globally, so
        there is no affected-region shortcut: a residual-push prototype
        on the ``stream-replay`` scenario touched 52-84 m arcs per batch
        at every push threshold tried (0.01-0.3), against ~10 m for the
        ~9.5 warm sweeps, because each batch's perturbation reaches the
        hubs at once.
        """
        self.rank, self.iterations = pagerank_warm(
            graph, self.rank, damping=self.damping,
            epsilon=self.epsilon, max_iterations=self.max_iterations)
        self.graph = graph
        return self.iterations
