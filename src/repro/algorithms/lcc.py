"""Local clustering coefficient (LCC): the one body every LCC runs.

For every vertex ``v`` with neighborhood ``N(v)`` (union of in- and
out-neighbors, self-loops excluded), LCC is the number of arcs between
members of ``N(v)`` divided by ``d(d-1)`` where ``d = |N(v)|`` -- the
Graphalytics definition, which is what Tables I-II time.  LCC is by far
the most expensive kernel in those tables (dota-league's dense
neighborhoods produce enormous wedge counts), which this implementation
preserves: cost scales with ``sum_v d(v)^2``.

Computed with batched sparse matrix products so the ``A @ A``
intermediate never materializes for the whole graph at once.  GraphBIG,
GraphMat and PowerGraph run :func:`clustering_blocks` and price its row
blocks each their own way.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.frontier import resolve_batch_rows
from repro.graph.simple import simple_patterns

__all__ = ["local_clustering", "lcc_wedge_count", "clustering_blocks"]


def clustering_blocks(src: np.ndarray, dst: np.ndarray, n: int,
                      batch_rows: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray,
                                 list[tuple[int, int]]]:
    """LCC over the arcs ``src -> dst``, one row block at a time.

    Returns ``(lcc, wedges, blocks)``: the coefficient per vertex (0.0
    with fewer than 2 neighbors), the wedge count ``d(d-1)`` per vertex
    (float64), and the ``(lo, hi)`` row range of every block in order.
    ``batch_rows`` (default: min(2048, n)) is the block height;
    out-of-range values raise ``ConfigError``.
    """
    batch_rows = resolve_batch_rows(batch_rows, n)
    a_dir, und = simple_patterns(src, dst, n)
    deg = np.asarray(und.sum(axis=1)).ravel().astype(np.float64)
    wedges = deg * (deg - 1)

    # Directed arc count inside each neighborhood: for vertex v this is
    # the sum over ordered neighbor pairs (x, y) with an arc x->y, i.e.
    # (A_und @ A_dir) restricted to the undirected pattern, summed by row.
    tri = np.zeros(n, dtype=np.float64)
    blocks = []
    for lo in range(0, n, batch_rows):
        hi = min(lo + batch_rows, n)
        block = (und[lo:hi] @ a_dir).multiply(und[lo:hi])
        tri[lo:hi] = np.asarray(block.sum(axis=1)).ravel()
        blocks.append((lo, hi))

    out = np.zeros(n, dtype=np.float64)
    mask = wedges > 0
    out[mask] = tri[mask] / wedges[mask]
    return out, wedges, blocks


def local_clustering(graph: CSRGraph,
                     batch_rows: int | None = None) -> np.ndarray:
    """LCC per vertex (0.0 for vertices with fewer than 2 neighbors)."""
    return clustering_blocks(graph.source_ids(), graph.col_idx,
                             graph.n_vertices, batch_rows)[0]


def lcc_wedge_count(graph: CSRGraph) -> float:
    """Total wedge work, ``sum_v d(v) * (d(v) - 1)`` -- the quantity the
    systems' cost models charge for LCC."""
    und = simple_patterns(graph.source_ids(), graph.col_idx,
                          graph.n_vertices)[1]
    deg = np.asarray(und.sum(axis=1)).ravel().astype(np.float64)
    return float((deg * (deg - 1)).sum())
