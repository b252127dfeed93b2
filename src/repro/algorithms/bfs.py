"""Breadth-first search: the one level loop every BFS runs.

One frontier per level.  A level runs top-down
(:meth:`~repro.graph.sweeps.SweepExecutor.top_down`: expand the
frontier's out-arcs, the lowest source claims each unvisited target) or
bottom-up (:meth:`~repro.graph.sweeps.SweepExecutor.bottom_up`: every
unvisited vertex scans its in-row for the first frontier vertex).
In-rows are sorted, so that first hit is the lowest-id frontier
in-neighbour -- the source the top-down claim picks -- and both
directions write the same parent: what a sequential textbook BFS with a
lowest-id tie-break produces, so results are reproducible.

Which way a level runs is a *direction rule*, the only thing the
systems' BFS loops ever differed in: by default
:func:`~repro.graph.frontier.pulls` (bottom-up once the frontier owns
:data:`~repro.graph.frontier.PULL_SHARE` of the arcs; the reference,
GraphBIG and GraphMat), GAP's alpha/beta switch
(:func:`repro.systems.gap.bfs.dobfs`), or always top-down (Graph500's
:func:`~repro.systems.graph500.bfs.bfs_bitmap`).  The systems keep only
the rule and their pricing of the levels.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.graph import frontier as fr
from repro.graph.csr import CSRGraph
from repro.graph.scratch import scratch_for
from repro.graph.sweeps import LocalSweeps, SweepExecutor

__all__ = ["bfs_levels", "bfs_rounds", "bfs_parents"]

#: ``rule(frontier, arcs, unexplored, bottom_up) -> bool``: whether the
#: level over a frontier of ``frontier`` vertices owning ``arcs`` out-arcs
#: runs bottom-up, given the out-arcs of no frontier so far
#: (``unexplored``) and whether the previous level ran bottom-up.
DirectionRule = Callable[[int, int, int, bool], bool]


def bfs_levels(out: CSRGraph, root: int, sweeps: SweepExecutor,
               rule: DirectionRule | None = None
               ) -> tuple[np.ndarray, np.ndarray,
                          list[tuple[int, int, int, bool]]]:
    """BFS from ``root`` along the arcs of ``out``, each level's sweep
    run by ``sweeps`` in the direction ``rule`` picks (default: bottom-up
    at or above :data:`~repro.graph.frontier.PULL_SHARE` of the arcs).

    Returns ``(parent, level, levels)``: ``-1`` marks unreached vertices
    in both arrays, ``parent[root] == root``, and per level ``(frontier,
    arcs, examined, bottom_up)`` is the size of the frontier it
    expanded, that frontier's out-degree sum, the arcs the sweep
    examined and the direction it ran.  The last level's frontier
    claims nothing.
    """
    if rule is None:
        def rule(_frontier, arcs, _unexplored, _bottom_up):
            return fr.pulls(out, arcs)
    n = out.n_vertices
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    level[root] = 0
    sweeps.begin_bfs(root)
    frontier = np.array([root], dtype=np.int64)
    levels: list[tuple[int, int, int, bool]] = []
    unexplored = out.n_edges
    bottom_up = False
    while frontier.size:
        arcs = fr.out_arc_count(out.row_ptr, frontier)
        unexplored -= arcs
        bottom_up = rule(int(frontier.size), arcs, unexplored, bottom_up)
        step = sweeps.bottom_up if bottom_up else sweeps.top_down
        new_v, examined = step(frontier, parent)
        levels.append((int(frontier.size), arcs, examined, bottom_up))
        level[new_v] = len(levels)
        frontier = new_v
    return parent, level, levels


def bfs_rounds(out: CSRGraph, root: int
               ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """:func:`bfs_levels` in-process under the default rule, per level
    ``(frontier, arcs)``: what GraphBIG and GraphMat price whichever
    direction ran.  A bottom-up level reads ``out.transposed()``, first
    asked for on the first such level.
    """
    sweeps = LocalSweeps(out, scratch_for(out, out.n_vertices,
                                          out.n_edges))
    parent, level, levels = bfs_levels(out, root, sweeps)
    return parent, level, [(f, a) for f, a, _, _ in levels]


def bfs_parents(graph: CSRGraph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(parent, level)`` arrays for a BFS from ``root``.

    ``parent[v] == -1`` and ``level[v] == -1`` mark unreached vertices;
    ``parent[root] == root``.
    """
    return bfs_rounds(graph, root)[:2]
