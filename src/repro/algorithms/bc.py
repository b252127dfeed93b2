"""Reference betweenness centrality (Brandes' algorithm, unweighted).

Paper Sec. V names betweenness centrality as "widely implemented but
not supported by either Graphalytics nor easy-parallel-graph-*"; GAP
itself ships a ``bc`` benchmark, so this reproduction implements it as
the extension path (approximate BC from a sample of source vertices,
exactly GAP's formulation).

The per-source sweep is the standard two-phase Brandes recursion:
forward BFS accumulating shortest-path counts ``sigma``, then a
reverse-level dependency accumulation.  Both phases are vectorized per
BFS level.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.frontier import dedup_ids, gather_slots
from repro.graph.scratch import scratch_for

__all__ = ["brandes_single_source"]


def brandes_single_source(graph: CSRGraph, source: int
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Brandes sweep: returns (dependency, sigma, level).

    Frontier expansion uses the shared slot gather; the ``sigma`` and
    ``delta`` accumulations stay ``np.add.at`` -- float sums must keep
    their historical association to stay byte-identical.
    """
    n = graph.n_vertices
    scratch = scratch_for(graph, n, graph.n_edges)
    level = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    level[source] = 0
    sigma[source] = 1.0
    frontiers: list[np.ndarray] = [np.array([source], dtype=np.int64)]

    # Forward phase: level-synchronous expansion; sigma[child] +=
    # sigma[parent] over all tree-level edges.
    while True:
        frontier = frontiers[-1]
        gs = gather_slots(graph.row_ptr, frontier, scratch)
        if gs.total == 0:
            break
        nbrs = graph.col_idx[gs.slots]
        srcs = np.repeat(frontier, gs.counts)
        depth = level[frontier[0]] + 1
        fresh = level[nbrs] == -1
        new_v = dedup_ids(nbrs[fresh], n, scratch)
        level[new_v] = depth
        # Path counts flow along *all* edges into the next level.
        into_next = level[nbrs] == depth
        np.add.at(sigma, nbrs[into_next], sigma[srcs[into_next]])
        if new_v.size == 0:
            break
        frontiers.append(new_v)

    # Backward phase: delta[v] += sum over next-level successors w of
    # sigma[v]/sigma[w] * (1 + delta[w]).
    delta = np.zeros(n, dtype=np.float64)
    for frontier in reversed(frontiers[1:]):
        gs = gather_slots(graph.row_ptr, frontier, scratch)
        if gs.total == 0:
            continue
        nbrs = graph.col_idx[gs.slots]
        srcs = np.repeat(frontier, gs.counts)
        # Predecessor edges run from level d-1 to d; here we iterate
        # vertices at level d and pull from their successors at d+1 --
        # equivalently push contributions to their predecessors, so
        # look at edges from this frontier *into the previous level*'s
        # successors: select edges whose target is one level deeper.
        deeper = level[nbrs] == level[srcs][0] + 1
        contrib = np.zeros(frontier.size)
        if deeper.any():
            terms = (sigma[srcs[deeper]] / sigma[nbrs[deeper]]) * (
                1.0 + delta[nbrs[deeper]])
            idx = np.searchsorted(frontier, srcs[deeper])
            np.add.at(contrib, idx, terms)
        delta[frontier] += contrib
    # Also accumulate for the source's own frontier-0 vertex.
    frontier = frontiers[0]
    nbr_slice = graph.neighbors(source)
    succ = nbr_slice[level[nbr_slice] == 1]
    if succ.size:
        delta[source] += float(
            ((sigma[source] / sigma[succ]) * (1.0 + delta[succ])).sum())
    return delta, sigma, level
