"""Reference triangle counting.

The second Sec. V "widely implemented but unsupported" kernel (GAP
ships ``tc``).  Counts unique triangles in the undirected simple view
of the graph via masked sparse products over an orientation: directing
every edge from lower to higher degree (GAP's relabeling trick) makes
each triangle countable exactly once.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph
from repro.graph.frontier import resolve_batch_rows
from repro.graph.simple import simple_patterns

__all__ = ["triangle_count"]


def triangle_count(graph: CSRGraph, batch_rows: int | None = None) -> int:
    """Number of unique triangles (undirected, loops/duplicates ignored).

    ``batch_rows`` (default: min(2048, n)) is the SpGEMM row-block
    width; out-of-range values raise
    :class:`~repro.errors.ConfigError`.
    """
    n = graph.n_vertices
    batch_rows = resolve_batch_rows(batch_rows, n)
    und = simple_patterns(graph.source_ids(), graph.col_idx, n)[1]

    # Degree-based total order: orient u -> v iff (deg, id) of u is
    # less than v's; every triangle has exactly one cyclic orientation
    # counted once by A_or @ A_or masked on A_or.
    deg = np.asarray(und.sum(axis=1)).ravel()
    coo = und.tocoo()
    u, v = coo.row, coo.col
    forward = (deg[u] < deg[v]) | ((deg[u] == deg[v]) & (u < v))
    a_or = sp.csr_matrix(
        (np.ones(int(forward.sum()), dtype=np.int64),
         (u[forward], v[forward])), shape=(n, n))

    total = 0
    for lo in range(0, n, batch_rows):
        hi = min(lo + batch_rows, n)
        block = (a_or[lo:hi] @ a_or).multiply(a_or[lo:hi])
        total += int(block.sum())
    return total
