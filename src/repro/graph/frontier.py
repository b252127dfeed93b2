"""Shared frontier primitives for the per-round kernel hot path.

Every system EPG* times runs the same per-round skeleton -- gather the
out-slots of the active vertex set, filter, claim/reduce per
destination -- and until this module each of the five systems (plus the
reference algorithms) re-implemented it with fresh NumPy temporaries and
``O(E log E)`` sort-based dedup per round.  This is the consolidated,
benchmarked version: Ligra's edgeMap idea (Dhulipala, Blelloch & Shun's
GBBS keeps one frontier abstraction across all algorithms) applied to
the vectorized-NumPy setting, with preallocated per-graph scratch
(:mod:`repro.graph.scratch`).

**Bit-identity contract.**  Each primitive computes *exactly* the same
arrays as the idiom it replaces (``np.repeat``+``cumsum``+``arange``
slot expansion, ``np.lexsort`` first-parent dedup, ``np.minimum.at`` +
``np.unique`` relaxation).  Equality is provable, not approximate:

* :func:`gather_slots` produces the identical ``int64`` slot vector via
  an integer cumulative sum (exact arithmetic, different association);
* :func:`first_parent_candidates` expands the frontier and selects the
  minimum source per target -- the same winner ``np.lexsort((srcs,
  nbrs))`` + first-occurrence picks -- by reverse-order scatter (last
  write wins, so the first = minimum source lands; the expansion's
  sources are non-decreasing by construction);
* :func:`segment_min_scatter` applies the same ``np.minimum.at`` update
  (minimum is exact and order-independent over floats without NaN) and
  rebuilds ``np.unique``'s sorted-unique output with a boolean-mask
  pass;
* :func:`relax_round` pushes (:func:`gather_slots`, then
  :func:`segment_min_scatter`) or pulls the same minima over the
  in-arcs with :func:`pull_min`, for the same reason;
* :func:`sorted_unique` is ``np.unique`` for integer ids, values and
  dtype, by one sort and one adjacent compare; :func:`dedup_ids` is
  the same for ids bounded by ``n``, by a scratch-mask sweep once they
  are dense.  No module calls a plain ``np.unique`` or ``np.union1d``
  (``tests/test_no_hash_unique.py``): from NumPy 2.3 on it hashes and
  then sorts, 3-17x the cost of the sort alone.

Floating-point *sums* are never re-associated -- that changes low-order
bits, which the byte-identity gate (``benchmarks/bench_kernels.py``)
would reject.  The one sum primitive is :func:`arc_sum_operator`, which
every PageRank sweep goes through (``LocalSweeps``, GAP, GraphBIG,
PowerGraph and the shard op) and which adds in arc order (goldens in
``tests/graph/test_sweeps.py`` and
``tests/systems/test_pagerank_goldens.py``); Brandes keeps
``np.add.at``.

The gate also enforces the point of the exercise: >=2x on the
gathered-edge hot loop at Kronecker scale 16.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.graph.scratch import COUNTERS, KernelScratch

__all__ = ["GatherSlots", "gather_slots", "first_parent_candidates",
           "first_hit_scan", "out_arc_count", "segment_min_scatter",
           "pull_min", "pulls", "relax_round", "arc_sum_operator",
           "sorted_unique", "dedup_ids", "BucketQueue",
           "resolve_batch_rows"]

#: :func:`dedup_ids` sorts (:func:`sorted_unique`) below ``n >>
#: _SMALL_SHIFT`` ids and sweeps an O(n) scratch mask from there on.
#: Both sides are bit-identical, so this is a constant factor only.
#: Measured on uniform ids (NumPy 2.4.6, 2-vCPU Xeon, n = 2**13 ..
#: 2**20): the sort costs 0.68-0.86x the sweep at ``n / 8`` and
#: 1.08-2.2x at ``n / 4``; a replay of every real call of the benchmark
#: sweeps confirms the switch beats either side alone (both tables in
#: ``docs/kernels.md``).
_SMALL_SHIFT = 3

#: :func:`relax_round` pulls over the in-arcs instead of pushing along
#: the out-arcs once the members own at least this share of the arcs,
#: and a level of :func:`repro.algorithms.bfs.bfs_levels` runs bottom-up
#: by default.  Both sides return identical arrays, so this is only a
#: constant factor; the measurement that chose it is in
#: :func:`relax_round`'s docstring.
PULL_SHARE = 0.3


@dataclass(frozen=True)
class GatherSlots:
    """One frontier expansion: views into scratch, valid until the next
    :func:`gather_slots` on the same scratch.

    Attributes
    ----------
    slots:
        ``int64[total]`` indices into ``col_idx``/``weights`` covering
        every out-slot of the frontier, in frontier order.
    counts:
        ``int64[|frontier|]`` out-degrees of the frontier vertices.
    offsets:
        ``int64[|frontier|]`` start of each vertex's segment in
        ``slots`` (exclusive cumulative sum of ``counts``).
    total:
        ``int(counts.sum())`` -- the gathered edge count the work
        profiles price.
    """

    slots: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    total: int


def gather_slots(row_ptr: np.ndarray, frontier: np.ndarray,
                 scratch: KernelScratch) -> GatherSlots:
    """Expand ``frontier`` into the slot indices of all its out-edges.

    Replaces the ``np.repeat(starts - offsets, counts) +
    np.arange(total)`` idiom with a single integer ``cumsum`` over a
    mostly-ones difference vector written into preallocated scratch:
    within a vertex's segment consecutive slots differ by one, and at
    each segment boundary the difference re-bases to that vertex's
    ``row_ptr`` start.  Exact integer arithmetic makes the result
    bit-identical to the old five-temporary version.
    """
    starts = row_ptr[frontier]
    ends = row_ptr[frontier + 1]
    counts = ends - starts
    total = int(counts.sum())
    offsets = scratch.seg_i64(max(counts.size, 1))[:counts.size]
    if counts.size:
        offsets[0] = 0
        np.cumsum(counts[:-1], out=offsets[1:])
    COUNTERS["gather_edges"] += float(total)
    if total == 0:
        return GatherSlots(np.empty(0, dtype=np.int64), counts,
                           offsets, 0)
    slots = scratch.edge_i64(total)
    slots[:] = 1
    segs = np.flatnonzero(counts)
    bounds = offsets[segs]
    slots[bounds[0]] = starts[segs[0]]
    if segs.size > 1:
        # Boundary difference: previous segment ended at ends[prev] - 1.
        slots[bounds[1:]] = starts[segs[1:]] - ends[segs[:-1]] + 1
    np.cumsum(slots, out=slots)
    return GatherSlots(slots, counts, offsets, total)


def first_parent_candidates(row_ptr: np.ndarray, col_idx: np.ndarray,
                            frontier: np.ndarray, visited: np.ndarray,
                            scratch: KernelScratch
                            ) -> tuple[np.ndarray, np.ndarray, int]:
    """Every unvisited out-neighbor of ``frontier`` with its smallest
    frontier source.

    Replaces the per-round ``np.lexsort((srcs, nbrs))`` +
    first-occurrence dedup over the expanded frontier.  The expansion
    (:func:`gather_slots`) emits segments in frontier order and
    frontiers are sorted vertex ids, so the sources come out
    non-decreasing; a *reverse-order* scatter then leaves, for each
    target, the value of its first (= minimum) source: NumPy assignment
    with duplicate indices stores the last write.  Visited targets are
    dropped afterwards, which is equivalent to the old pre-filter
    because a still-unvisited target keeps all of its frontier arcs.

    Returns ``(new_v, parents, examined)``: the sorted ids of the
    unvisited targets, exactly as the lexsort version produced them, the
    minimum source of each, and the frontier's out-degree sum.  Writes
    nothing but scratch, so a shard worker may call it on state only the
    parent process may write.
    """
    gs = gather_slots(row_ptr, frontier, scratch)
    if gs.total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    nbrs = col_idx[gs.slots]
    mask = scratch.mask("claim")
    claim = scratch.vertex_i64("claim")
    mask[nbrs] = True
    claim[nbrs[::-1]] = np.repeat(frontier, gs.counts)[::-1]
    touched = np.flatnonzero(mask)
    mask[touched] = False
    new_v = touched[~visited[touched]]
    return new_v, claim[new_v], gs.total


def first_hit_scan(row_ptr: np.ndarray, col_idx: np.ndarray,
                   rows: np.ndarray, in_frontier: np.ndarray,
                   scratch: KernelScratch
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """Bottom-up parent search: each of ``rows`` scans its neighbor list
    for the first one set in ``in_frontier``.

    Returns ``(found, parents, examined)``: a mask over ``rows``, the
    first frontier neighbor of each found row, and the scanned-arc count
    under early exit -- up to and including the first hit, or the whole
    list when a row has none (the entire point of bottom-up).
    """
    gs = gather_slots(row_ptr, rows, scratch)
    hit_pos = np.flatnonzero(in_frontier[col_idx[gs.slots]])
    if hit_pos.size == 0:
        # Nobody has a frontier neighbor: every list was scanned whole.
        return np.zeros(rows.size, dtype=bool), hit_pos, gs.total
    # First hit per segment: positions of hits, bucketed by segment.
    seg_end = gs.offsets + gs.counts
    first_idx = np.searchsorted(hit_pos, gs.offsets)
    has_hit = first_idx < hit_pos.size
    first_hit = np.where(
        has_hit, hit_pos[np.minimum(first_idx, hit_pos.size - 1)], -1)
    found = has_hit & (first_hit < seg_end)
    parents = col_idx[gs.slots[first_hit[found]]]
    examined = np.where(found, first_hit - gs.offsets + 1, gs.counts)
    return found, parents, int(examined.sum())


def out_arc_count(row_ptr: np.ndarray, members: np.ndarray) -> int:
    """The out-degree sum of ``members``: the arc count a relaxation
    round over them prices."""
    return int((row_ptr[members + 1] - row_ptr[members]).sum())


def segment_min_scatter(dist: np.ndarray, dsts: np.ndarray,
                        cand: np.ndarray,
                        scratch: KernelScratch) -> np.ndarray:
    """``dist[d] = min(dist[d], min of cand over d)`` per destination;
    returns the sorted unique destinations.

    Replaces the ``np.minimum.at`` + ``np.unique`` pair of the
    relaxation kernels.  The minimum itself is kept as the indexed
    ufunc (NumPy >= 1.24 ships an indexed fast path that beats
    sort + ``minimum.reduceat`` -- measured in the kernel gate); the
    ``O(E log E)`` ``np.unique`` sort is what actually dominated, and
    :func:`dedup_ids` rebuilds its exact output in ``O(E + n)``.
    Minimum over NaN-free floats is order-independent, so the update is
    bit-identical however the duplicates were grouped.
    """
    np.minimum.at(dist, dsts, cand)
    return dedup_ids(dsts, dist.size, scratch)


def pull_min(starts: np.ndarray, col_idx: np.ndarray,
             lengths: np.ndarray | None,
             src_val: np.ndarray) -> np.ndarray:
    """Per row, the minimum of ``src_val[col_idx[a]] + lengths[a]`` over
    its arcs (``src_val[col_idx[a]]`` when ``lengths`` is ``None``).

    ``starts`` are the first arcs of the *non-empty* rows, in order, so
    each segment of ``np.minimum.reduceat`` is one row; ``col_idx`` must
    not be empty.  The one pull body: :func:`relax_round`'s pull side
    and :func:`~repro.algorithms.wcc.hashmin_rounds`.
    """
    terms = src_val[col_idx]
    if lengths is not None:
        terms += lengths
    return np.minimum.reduceat(terms, starts)


def pulls(out: CSRGraph, arcs: int) -> bool:
    """The direction rule: a round over ``arcs`` of ``out``'s arcs pulls
    (or, for a BFS level, runs bottom-up) once they are at least
    :data:`PULL_SHARE` of them.  :func:`relax_round`, the default rule
    of :func:`repro.algorithms.bfs.bfs_levels` and the shard engine's
    ``relax`` (which crosses only a round that pulls) all decide with
    it."""
    return arcs >= PULL_SHARE * out.n_edges


def relax_round(out: CSRGraph, inn: CSRGraph | None,
                members: np.ndarray, values: np.ndarray,
                dist: np.ndarray, scratch: KernelScratch,
                adds: float | None = None,
                touched: np.ndarray | None = None,
                arcs: int | None = None
                ) -> tuple[np.ndarray, int]:
    """One relaxation round along the out-arcs of ``members``:
    ``dist[d] = min(dist[d], values[s] + w)`` over every arc ``s -> d``,
    where ``w`` is what the arc adds: its weight (each CSR's own
    ``weights``; nothing on an unweighted CSR) when ``adds`` is
    ``None``, else ``adds`` for every arc -- 1 for BFS hops, 0 for WCC
    labels.  ``values[s] + adds`` is formed once per member.

    Returns ``(improved, examined)``: the sorted ids whose ``dist``
    dropped and the out-degree sum of ``members`` (what the profiles
    price).  A pull reads ``inn``, ``out.transposed()`` if ``None``: a
    caller passes in-arcs it holds, such as the in-arcs' part when
    ``out`` is a weight-split part.  ``touched``, when
    given, is a ``bool[n]`` set at every destination of a member's arc,
    improved or not (the GAS engine's signalled set).  ``arcs`` is the
    members' out-degree sum in ``out`` when the caller has counted it
    already.

    Two ways to the same ``dist``, picked by :func:`pulls`.  *Push*,
    below :data:`PULL_SHARE` of the arcs: :func:`gather_slots` over the
    members' out-arcs, each member's offer repeated over its segment,
    then :func:`segment_min_scatter`.  *Pull*, at or above it: a
    per-vertex offer that is ``+inf`` off ``members`` goes through
    :func:`pull_min` over every non-empty in-row, and rows whose minimum
    beats ``dist`` take it.  A non-member's arc offers ``inf`` and never
    wins; the minimum over NaN-free floats does not depend on order, so
    both sides write the same bytes and return the same ids.  On a
    symmetrized multigraph each vertex has one (neighbour, weight)
    multiset in both directions, so pulling over ``out`` is exact.

    Measured per call inside real SSSP runs (12 roots, symmetrized
    Kronecker scale 13 / 16, each side forced in turn, best of 3, on a
    2-core x86 box): the pull costs a flat 0.9-1.0 ms / 7.3-9.7 ms
    whatever the share (1.0-1.1 / 11-12.7 ms with ``touched``), the push
    grows linearly from 0.1 / 0.4 ms to 3.7 / 34 ms at a full sweep.
    They cross at a share of 0.22-0.30 for GraphBIG's Bellman-Ford and
    GraphMat's SSSP and 0.25-0.35 for the GAS scatter; GraphMat BFS's
    levels, which switch on the same share, cross at about 0.2-0.3.
    GAP's delta-stepping over a light or heavy part runs a whole pass
    within 5 % / 9 % of its best at any share from 0.1 to 0.5.
    0.3 sits among them: the worst mis-pick is Bellman-Ford at shares
    of 0.25-0.3 at scale 16, about 2 ms a round, hit by fewer than one
    round per root.

    ``touched`` needs no second pass when every offer is finite (no
    member at ``inf``, no ``inf`` length): a member reached a row
    exactly when the row's minimum is.  Otherwise a member mask is
    reduced over the in-arcs as well.
    """
    examined = (out_arc_count(out.row_ptr, members) if arcs is None
                else arcs)
    offers = values[members] if adds is None else values[members] + adds
    if not pulls(out, examined):
        gs = gather_slots(out.row_ptr, members, scratch)
        cand = np.repeat(offers, gs.counts)
        dsts = out.col_idx[gs.slots]
        if adds is None and out.weights is not None:
            cand += out.weights[gs.slots]
        if touched is not None:
            touched[dsts] = True
        better = cand < dist[dsts]
        return (segment_min_scatter(dist, dsts[better], cand[better],
                                    scratch), examined)
    # The push side's arcs are counted by ``gather_slots``.
    COUNTERS["gather_edges"] += float(examined)
    if inn is None:
        inn = out.transposed()
    rows, starts = inn.pull_rows()
    if rows.size == 0:
        return rows, examined
    lengths = inn.weights if adds is None else None
    src_val = np.full(dist.size, np.inf)
    src_val[members] = offers
    y = pull_min(starts, inn.col_idx, lengths, src_val)
    if touched is not None:
        if (offers.max(initial=-np.inf) < np.inf
                and (lengths is None or inn.max_weight() < np.inf)):
            # Every offer is finite, so a row is reached by a member
            # exactly when its minimum is.
            hit = y < np.inf
        else:
            is_member = scratch.mask("push")
            is_member[members] = True
            hit = np.logical_or.reduceat(is_member[inn.col_idx], starts)
            is_member[members] = False
        touched[rows[hit]] = True
    better = y < dist[rows]
    improved = rows[better]
    dist[improved] = y[better]
    return improved, examined


def arc_sum_operator(row_ptr: np.ndarray, col_idx: np.ndarray, n: int,
                     rows: tuple[int, int] | None = None) -> csr_matrix:
    """A CSR's arcs as an all-ones float64 ``csr_matrix`` ``A``, so that
    ``(A @ x)[r]`` sums ``x[col_idx[a]]`` over row ``r``'s arcs.

    The CSR has ids below ``n`` in ``col_idx``; ``rows = (lo, hi)``
    keeps rows ``lo .. hi - 1`` only (row ``lo`` becomes row 0).  Every
    caller passes in-arcs (``out.transposed()`` or a slice of it), so a
    row's sum is a vertex's gather over its in-neighbours.

    The mat-vec walks the rows in order and each row's arcs in order,
    adding one ``1.0 * x[...]`` at a time into a ``y`` that starts at
    zero: arc order, bit-identical to
    ``np.bincount(rows_of_arcs, weights=x[col_idx])``.  Over a stable
    transpose (:meth:`CSRGraph.transposed`) that is also the order in
    which ``np.add.at`` scatters along the out-arcs into zeros, since
    each in-row lists its sources ascending.
    """
    if rows is not None:
        ptr = row_ptr[rows[0]:rows[1] + 1]
        col_idx = col_idx[ptr[0]:ptr[-1]]
        row_ptr = ptr - ptr[0]
    n_rows = row_ptr.size - 1
    return csr_matrix((np.ones(col_idx.size), col_idx, row_ptr),
                      shape=(n_rows, n))


def _run_heads(sorted_ids: np.ndarray) -> np.ndarray:
    """``bool`` mask of the first element of each run of equal values
    in the non-empty, sorted ``sorted_ids``."""
    heads = np.empty(sorted_ids.size, dtype=bool)
    heads[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=heads[1:])
    return heads


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` for integer ``ids``: one sort and one adjacent
    compare, same values and same dtype.

    NumPy >= 2.3 answers a plain ``np.unique`` on integers through a
    hash table and then sorts the result anyway, which costs 3-17x this
    on 100 to 65 536 ids (table in ``docs/kernels.md``); the sorted
    output is the same either way.  Use :func:`dedup_ids` where ids are
    bounded by ``n`` and a scratch mask is at hand.
    """
    ordered = np.sort(ids, axis=None)
    if ordered.size == 0:
        return ordered
    return ordered[_run_heads(ordered)]


def dedup_ids(ids: np.ndarray, n: int,
              scratch: KernelScratch) -> np.ndarray:
    """Sorted unique ids out of ``ids`` (all in ``[0, n)``).

    Scatter into a scratch mask, sweep once, re-clear only the touched
    entries.  Small inputs take :func:`sorted_unique` instead (the sweep
    would cost O(n) regardless of input size); both branches return
    identical arrays.
    """
    if ids.size == 0:
        return np.empty(0, dtype=np.int64)
    if ids.size < (n >> _SMALL_SHIFT):
        return sorted_unique(ids)
    mask = scratch.mask("dedup")
    mask[ids] = True
    out = np.flatnonzero(mask)
    mask[out] = False
    return out


class BucketQueue:
    """Lazy monotone bucket queue: pending id lists + a min-heap of keys.

    Generalized out of GAP's delta-stepping (where it replaced the
    ``O(n)`` ``np.flatnonzero(bucket == current)`` scan per bucket).
    The caller-owned ``key`` array stays
    the source of truth; *decrease-key* (and increase-key) is simply a
    fresh :meth:`push` with the new key -- entries that went stale
    between push and pop are filtered by ``key[v] == k`` on pop.
    Invariant: every vertex with ``key[v] == k >= 0`` has at least one
    entry in ``pending[k]``, so a pop yields exactly the sorted-unique
    set a full scan would have produced.
    """

    __slots__ = ("_pending", "_heap")

    def __init__(self) -> None:
        self._pending: dict[int, list[np.ndarray]] = {}
        self._heap: list[int] = []

    def push(self, vertices: np.ndarray, keys: np.ndarray) -> None:
        """Enqueue ``vertices`` under their (per-vertex) ``keys``.

        One stable sort splits the batch into per-key slices (views,
        no copies): ``O(b log b)`` total instead of the ``O(b)``
        boolean mask *per distinct key* a groupby-by-masking costs --
        the difference between winning and losing to the ``O(n)``
        re-scan baseline on skewed degree distributions.

        ``vertices`` and ``keys`` must align: a longer ``vertices``
        array used to silently drop its tail after the
        ``vertices[order]`` fancy-indexing, violating the documented
        pending-list invariant (a vertex with a live key but no pending
        entry is never popped).
        """
        if vertices.size != keys.size:
            raise ConfigError(
                f"BucketQueue.push: vertices.size ({vertices.size}) != "
                f"keys.size ({keys.size})")
        if keys.size == 0:
            return
        order = np.argsort(keys, kind="stable")
        sorted_vertices = vertices[order]
        sorted_keys = keys[order]
        starts = np.flatnonzero(_run_heads(sorted_keys))
        bounds = np.append(starts, sorted_keys.size).tolist()
        for i, k in enumerate(sorted_keys[starts].tolist()):
            part = sorted_vertices[bounds[i]:bounds[i + 1]]
            lst = self._pending.get(k)
            if lst is None:
                self._pending[k] = [part]
                heapq.heappush(self._heap, k)
            else:
                lst.append(part)

    def pop(self, key: np.ndarray) -> tuple[int, np.ndarray] | None:
        """Lowest bucket with live members, or ``None`` when drained.

        A member is live when ``key[v]`` still equals the bucket it was
        pushed under; everything else is a stale entry from before a
        decrease/increase-key and is skipped (the "lazy bucket" part).
        """
        while self._heap:
            k = heapq.heappop(self._heap)
            parts = self._pending.pop(k)
            cand = parts[0] if len(parts) == 1 else np.concatenate(parts)
            members = sorted_unique(cand[key[cand] == k])
            if members.size:
                return k, members
        return None


def resolve_batch_rows(batch_rows: int | None, n: int,
                       default: int = 2048) -> int:
    """Validate the row-blocking width of the SpGEMM-style kernels.

    ``None`` resolves to ``min(default, n)`` (never below 1, so empty
    graphs still get a well-formed ``range``).  An explicit width must
    actually tile the matrix: non-positive values or more rows than the
    graph has are configuration errors, not silently-working slices.
    """
    if batch_rows is None:
        return max(min(default, n), 1)
    batch_rows = int(batch_rows)
    if batch_rows <= 0 or batch_rows > max(n, 1):
        raise ConfigError(
            f"batch_rows must be in [1, n={n}], got {batch_rows}")
    return batch_rows
