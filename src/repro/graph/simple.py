"""Simplified undirected view shared by the structural kernels.

k-core decomposition, maximal independent set, and connected
components are defined on the *simple undirected* graph: self-loops
dropped, duplicate edges counted once, every arc usable in both
directions.  The homogenized datasets can carry all three artifacts,
and each system stores its own representation -- so cross-system exact
agreement (the differential-matrix contract) requires every
implementation to reduce to the identical view first.  This module is
that reduction, and :func:`simple_patterns` is the scipy
canonicalization under it that the LCC body and triangle counting
multiply, packaged once so five systems cannot drift.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph

__all__ = ["simple_patterns", "simple_undirected_view"]


def simple_patterns(src: np.ndarray, dst: np.ndarray, n: int
                    ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """0/1 ``int64`` adjacency of the arcs ``src -> dst`` and its
    symmetric closure, both without self-loops or duplicates: drop
    self-loops, binarize, symmetrize, re-binarize."""
    src = np.asarray(src)
    dst = np.asarray(dst)
    keep = src != dst
    a_dir = sp.csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int64),
         (src[keep], dst[keep])), shape=(n, n))
    a_dir.sum_duplicates()
    a_dir.data[:] = 1
    und = a_dir + a_dir.T
    und.data[:] = 1
    und.sum_duplicates()
    und.data[:] = 1
    return a_dir, und.tocsr()


def simple_undirected_view(src: np.ndarray, dst: np.ndarray,
                           n: int) -> CSRGraph:
    """Reduce raw arcs to the canonical simple undirected view: a
    symmetric CSR, rows sorted and deduplicated.

    The symmetric closure of :func:`simple_patterns` -- the pattern the
    LCC body multiplies -- so every caller lands on byte-identical
    ``row_ptr``/``col_idx`` arrays for the same input edge set,
    whichever system's representation the arcs came from.
    """
    und = simple_patterns(src, dst, n)[1]
    und.sort_indices()
    return CSRGraph(row_ptr=und.indptr.astype(np.int64),
                    col_idx=und.indices.astype(np.int64), symmetric=True)
