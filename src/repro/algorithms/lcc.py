"""Local clustering coefficient (LCC): the one body every LCC runs.

For every vertex ``v`` with neighborhood ``N(v)`` (union of in- and
out-neighbors, self-loops excluded), LCC is the number of arcs between
members of ``N(v)`` divided by ``d(d-1)`` where ``d = |N(v)|`` -- the
Graphalytics definition, which is what Tables I-II time.  LCC is by far
the most expensive kernel in those tables (dota-league's dense
neighborhoods produce enormous wedge counts), which this implementation
preserves: cost scales with ``sum_v d(v)^2``.

The arc count of row block ``U`` (its rows of the symmetric pattern) is
the row sum of ``(U @ A) * U`` with ``A`` the directed pattern.  Each
block picks its representation, the choice the paper shows GraphMat
paying for on small dense inputs:

- *dense* when at least :data:`DENSE_SHARE` of the block's ``rows x n``
  entries are neighbors and its three dense ``float32`` arrays, ``U``,
  ``U @ A`` and ``A`` (``(2 rows + n) x n x 4`` bytes), fit
  :data:`DENSE_BUDGET_BYTES`; ``A`` is densified once per call, by the
  first dense block;
- *sparse* otherwise: a SpGEMM that materializes ``U @ A`` before
  masking it, which on a dense block is nearly full.

Both give the same bytes.  Every entry of ``U @ A`` counts 0/1 products,
so it is an integer of at most ``n``; the budget caps ``n`` below 2896,
far below 2**24, so ``float32`` holds every entry and every partial sum
exactly in any BLAS summation order.  The row sums are taken in
``float64`` and are integers of at most ``n**2``, exact below 2**53,
like the sparse path's ``int64`` sums converted to ``float64``.
GraphBIG, GraphMat and PowerGraph run :func:`clustering_blocks`, at
its default block height, through its one call in
:class:`~repro.systems.base.GraphSystem`, and price its ``wedges`` and
``blocks`` each their own way; neither depends on the path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.frontier import resolve_batch_rows
from repro.graph.simple import simple_patterns

__all__ = ["clustering_blocks"]

#: A row block runs on dense BLAS once at least this share of its
#: ``rows x n`` entries are neighbors.  Measured per
#: :func:`clustering_blocks` call on the three graphs ``epg reproduce``
#: runs LCC on (2 vCPUs, OpenBLAS): the dota-league stand-in (n = 964,
#: 21 % dense) takes 12 ms dense against 151 ms sparse; Kronecker scale
#: 10 (2 % dense) 13 ms against 20 ms with two BLAS threads but 32 ms
#: against 24 ms with one, a tie the sparse path keeps.
DENSE_SHARE = 0.10

#: Bytes a dense block may hold in ``float32`` arrays: its rows, their
#: product with ``A`` and ``A`` itself, ``(2 rows + n) x n x 4``.  The
#: cit-Patents stand-in (n = 14 745) would need 0.9 GB for ``A`` alone.
DENSE_BUDGET_BYTES = 32 << 20


def clustering_blocks(src: np.ndarray, dst: np.ndarray, n: int,
                      batch_rows: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray,
                                 list[tuple[int, int]]]:
    """LCC over the arcs ``src -> dst``, one row block at a time.

    Returns ``(lcc, wedges, blocks)``: the coefficient per vertex (0.0
    with fewer than 2 neighbors), the wedge count ``d(d-1)`` per vertex
    (float64), and the ``(lo, hi)`` row range of every block in order.
    ``batch_rows`` (default: min(2048, n)) is the block height;
    out-of-range values raise ``ConfigError``.  Whether a block runs
    dense or sparse changes no output byte (module docstring).
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
    a_dense = None
    for lo in range(0, n, batch_rows):
        hi = min(lo + batch_rows, n)
        rows = und[lo:hi]
        if (rows.nnz >= DENSE_SHARE * (hi - lo) * n
                and (2 * (hi - lo) + n) * n * 4 <= DENSE_BUDGET_BYTES):
            if a_dense is None:
                a_dense = a_dir.astype(np.float32).toarray()
            tri[lo:hi] = _dense_arc_counts(rows, a_dense)
        else:
            block = (rows @ a_dir).multiply(rows)
            tri[lo:hi] = np.asarray(block.sum(axis=1)).ravel()
        blocks.append((lo, hi))

    out = np.zeros(n, dtype=np.float64)
    mask = wedges > 0
    out[mask] = tri[mask] / wedges[mask]
    return out, wedges, blocks


def _dense_arc_counts(rows: sp.csr_matrix, a_dense: np.ndarray
                      ) -> np.ndarray:
    """Row sums of ``(rows @ A) * rows`` on dense ``float32`` copies."""
    u = rows.astype(np.float32).toarray()
    prod = u @ a_dense
    prod *= u
    return prod.sum(axis=1, dtype=np.float64)


