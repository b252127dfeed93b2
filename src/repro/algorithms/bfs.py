"""Breadth-first search: the one level loop the reference, GraphBIG and
GraphMat run.

One frontier per level.  A level whose frontier owns under
:data:`~repro.graph.frontier.PULL_SHARE` of the arcs runs top-down
(:meth:`~repro.graph.sweeps.LocalSweeps.top_down`: expand the frontier's
out-arcs, the lowest source claims each unvisited target); at or above
it runs bottom-up (:meth:`~repro.graph.sweeps.LocalSweeps.bottom_up`:
every unvisited vertex scans its in-row for the first frontier vertex).
In-rows are sorted, so that first hit is the lowest-id frontier
in-neighbour -- the source the top-down claim picks -- and both
directions write the same parent: what a sequential textbook BFS with a
lowest-id tie-break produces, so results are reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.graph import frontier as fr
from repro.graph.csr import CSRGraph
from repro.graph.scratch import scratch_for
from repro.graph.sweeps import LocalSweeps

__all__ = ["bfs_rounds", "bfs_parents"]


def bfs_rounds(out: CSRGraph, inn: CSRGraph | None, root: int
               ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """BFS from ``root`` along the arcs of ``out``.

    ``inn`` is the in-arc CSR of the same graph -- ``out`` itself when
    it was symmetrized -- or ``None`` for ``out.transposed()``, built on
    the first bottom-up level and memoized on ``out``.

    Returns ``(parent, level, rounds)``: ``-1`` marks unreached vertices
    in both arrays, ``parent[root] == root``, and per level ``(frontier,
    arcs)`` is the size of the frontier it expanded and that frontier's
    out-degree sum, which is what the systems price whichever direction
    ran.  The last level's frontier claims nothing.
    """
    n = out.n_vertices
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    level[root] = 0
    sweeps = LocalSweeps(out, inn, scratch_for(out, n, out.n_edges))
    sweeps.begin_bfs(root)
    frontier = np.array([root], dtype=np.int64)
    rounds: list[tuple[int, int]] = []
    while frontier.size:
        arcs = int((out.row_ptr[frontier + 1] - out.row_ptr[frontier]).sum())
        rounds.append((int(frontier.size), arcs))
        if fr.pulls(out, arcs):
            frontier, _ = sweeps.bottom_up(frontier, parent)
        else:
            frontier, _ = sweeps.top_down(frontier, parent)
        level[frontier] = len(rounds)
    return parent, level, rounds


def bfs_parents(graph: CSRGraph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(parent, level)`` arrays for a BFS from ``root``.

    ``parent[v] == -1`` and ``level[v] == -1`` mark unreached vertices;
    ``parent[root] == root``.
    """
    return bfs_rounds(graph, None, root)[:2]


