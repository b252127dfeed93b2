"""Single-source shortest paths: the reference (Dijkstra via scipy) and
the one Bellman-Ford loop GraphBIG and GraphMat run."""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.frontier import relax_round
from repro.graph.scratch import scratch_for

__all__ = ["sssp_dijkstra", "check_sssp_weights", "bellman_ford_rounds"]


def check_sssp_weights(weights: np.ndarray | None) -> None:
    """Reject arc weights no SSSP here is defined for -- the reference
    and all four systems' kernels call it before any state moves.

    A negative weight can close a negative cycle, which a label-correcting
    loop relaxes forever; a NaN never compares, so it was silently
    dropped.  ``+inf`` is legal (an arc nothing reaches through).  The
    comparison is written so NaN fails it.
    """
    if weights is None:
        raise ValidationError("SSSP requires a weighted graph")
    if weights.size and not weights.min() >= 0:
        raise ValidationError(
            f"SSSP requires non-negative weights, got {weights.min()}")


def sssp_dijkstra(graph: CSRGraph, root: int) -> np.ndarray:
    """Exact shortest-path distances from ``root``.

    Unreachable vertices get ``+inf``.  The graph must carry
    non-negative weights (the Graph500 SSSP convention; all datasets the
    harness produces satisfy it).
    """
    check_sssp_weights(graph.weights)
    # scipy sums duplicate entries when canonicalizing; parallel edges must
    # instead keep their *minimum* weight, so dedupe explicitly first.
    # csgraph is imported here: it pulls in scipy.linalg, which nothing
    # else on the CLI's start-up path needs.
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    n = graph.n_vertices
    src = graph.source_ids()
    dst = graph.col_idx
    w = graph.weights
    if graph.n_edges:
        # Min weight per (src, dst) pair: one radix argsort on the
        # combined integer key + segmented min, instead of the old
        # two-key ``np.lexsort((w, key))`` (same selected weights --
        # the minimum of a run is order-independent).
        key = src * np.int64(n) + dst
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        first = np.ones(key_sorted.size, dtype=bool)
        first[1:] = key_sorted[1:] != key_sorted[:-1]
        sel = order[first]
        src, dst = src[sel], dst[sel]
        w = np.minimum.reduceat(w[order], np.flatnonzero(first))
    mat = sp.csr_matrix((w, (src, dst)), shape=(n, n))
    dist = csgraph.dijkstra(mat, directed=True, indices=root)
    return np.asarray(dist, dtype=np.float64)


def bellman_ford_rounds(out: CSRGraph, root: int
                        ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Label-correcting SSSP from ``root`` along the weighted arcs of
    ``out``: each round relaxes the out-arcs of the vertices whose
    distance dropped in the previous one, with one
    :func:`~repro.graph.frontier.relax_round` (push below its
    ``PULL_SHARE``, pull over ``out.transposed()`` at or above it).

    Returns ``(dist, rounds)``: ``+inf`` marks unreached vertices, and
    per round ``(active, examined)`` is how many vertices it relaxed and
    their out-degree sum, which is what the systems price.
    """
    check_sssp_weights(out.weights)
    n = out.n_vertices
    scratch = scratch_for(out, n, out.n_edges)
    dist = np.full(n, np.inf)
    dist[root] = 0.0
    active = np.array([root], dtype=np.int64)
    rounds: list[tuple[int, int]] = []
    while active.size:
        improved, examined = relax_round(out, None, active, dist, dist,
                                         scratch)
        rounds.append((int(active.size), examined))
        active = improved
    return dist, rounds
