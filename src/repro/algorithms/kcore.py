"""k-core decomposition: the one peel every system runs.

The core number of a vertex is the largest ``k`` such that the vertex
belongs to a maximal subgraph of minimum degree ``k`` (Matula-Beck).
Defined on the simple undirected view (:mod:`repro.graph.simple`):
self-loops dropped, duplicate edges counted once -- the convention every
system implementation shares, so core numbers (which are mathematically
unique) compare exactly across systems.

:func:`peel_cores` is the body all four systems with a k-core price
round by round, called once for them all by
:class:`~repro.systems.base.GraphSystem`; GraphMat, which recounts
degrees with a superstep, also prices the superstep that finds a level
exhausted.  The deliberately
slow :func:`core_numbers_naive` re-scans the full adjacency every
sub-round and shares nothing with it but the view;
``benchmarks/bench_algorithms.py`` holds the peel to a >=2x advantage
over it, and the hypothesis suite holds the two to exact agreement.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.frontier import gather_slots
from repro.graph.scratch import scratch_for
from repro.graph.simple import simple_undirected_view

__all__ = ["core_numbers", "core_numbers_naive", "peel_cores"]


def peel_cores(view: CSRGraph
               ) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Level-synchronous peel of an already-simplified view.

    Returns ``(core, rounds)``: the core numbers and, per round,
    ``(peeled, arcs, level)`` -- how many vertices the round peeled, how
    many view arcs their neighborhoods hold and the core number it
    assigned, which is what the systems price.  A level opens with
    every live vertex at or under it; each round peels the frontier,
    decrements only the touched neighbors (clamped at the level, so no
    ``O(n)`` rescan) and carries the ones that fell to the level into
    the next round.

    Peeling a whole frontier at once equals vertex-at-a-time
    Matula-Beck: every member has residual degree <= the level, so any
    removal order inside the batch assigns the same core number.  It is
    also the round sequence of a lazy bucket queue popping its minimum
    bucket: the clamp keeps every pushed key at or above the level, so
    the lowest live bucket is always the current frontier.
    """
    n = view.n_vertices
    scratch = scratch_for(view, n, view.n_edges)
    core = np.zeros(n, dtype=np.int64)
    rounds: list[tuple[int, int, int]] = []
    deg = view.out_degrees()
    alive = np.ones(n, dtype=bool)
    remaining = n
    level = 0
    while remaining:
        alive_idx = np.flatnonzero(alive)
        level = max(level, int(deg[alive_idx].min()))
        frontier = alive_idx[deg[alive_idx] <= level]
        while frontier.size:
            core[frontier] = level
            alive[frontier] = False
            remaining -= int(frontier.size)
            nbrs = view.col_idx[
                gather_slots(view.row_ptr, frontier, scratch).slots]
            rounds.append((int(frontier.size), int(nbrs.size), level))
            nbrs = nbrs[alive[nbrs]]
            if nbrs.size == 0:
                break
            # O(a log a) in the touched neighborhood -- never O(n)/round.
            ids, cnt = np.unique(nbrs, return_counts=True)
            new_deg = np.maximum(deg[ids] - cnt, level)
            deg[ids] = new_deg
            frontier = ids[new_deg <= level]
    return core, rounds


def core_numbers(graph: CSRGraph) -> np.ndarray:
    """Core number per vertex of the simple undirected view."""
    view = simple_undirected_view(
        graph.source_ids(), graph.col_idx, graph.n_vertices)
    return peel_cores(view)[0]


def core_numbers_naive(graph: CSRGraph) -> np.ndarray:
    """Re-scan peeling baseline (the level-synchronous recount shape).

    Each sub-round *re-scans the full adjacency* to recount every
    vertex's alive-neighbor degree -- the ``O(m)``-per-sub-round shape
    the matrix-based systems execute (GraphMat's pricing, ``kcore_spmv``,
    charges an SpMV recount over the live columns per superstep; the
    answer comes from :func:`peel_cores`) -- then peels by an ``O(n)``
    scan.  No incremental decrements: correct, the benchmark's foil,
    and the cross-system tests' independent oracle.
    """
    view = simple_undirected_view(
        graph.source_ids(), graph.col_idx, graph.n_vertices)
    n = view.n_vertices
    core = np.zeros(n, dtype=np.int64)
    if n == 0:
        return core
    alive = np.ones(n, dtype=bool)
    remaining = n
    level = 0
    while remaining:
        # Re-scan: residual degree = alive neighbors, counted from
        # scratch over the whole edge array.
        nbr_alive = alive[view.col_idx].astype(np.int64)
        sums = np.concatenate(([0], np.cumsum(nbr_alive)))
        deg = sums[view.row_ptr[1:]] - sums[view.row_ptr[:-1]]
        level = max(level, int(deg[alive].min()))
        peel = np.flatnonzero(alive & (deg <= level))
        core[peel] = level
        alive[peel] = False
        remaining -= int(peel.size)
    return core
