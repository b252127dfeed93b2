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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = ["SimpleView", "simple_patterns", "simple_undirected_view"]


@dataclass(frozen=True)
class SimpleView:
    """CSR of the simple undirected graph (sorted, deduplicated)."""

    n: int
    #: ``int64[n + 1]`` row pointer (compatible with ``gather_slots``).
    indptr: np.ndarray
    #: ``int64[nnz]`` neighbor ids, sorted within each row.
    indices: np.ndarray
    #: ``int64[n]`` simple degrees (``diff(indptr)``).
    degrees: np.ndarray

    @property
    def nnz(self) -> int:
        """Stored directed slots (2x the simple edge count)."""
        return int(self.indices.size)

    def neighbors_of(self, vertices: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of ``vertices`` (copy)."""
        counts = self.degrees[vertices]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.indptr[vertices]
        offsets = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        slots = (np.repeat(starts - offsets, counts)
                 + np.arange(total, dtype=np.int64))
        return self.indices[slots]


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
                           n: int) -> SimpleView:
    """Reduce raw arcs to the canonical simple undirected view.

    The symmetric closure of :func:`simple_patterns` -- the pattern the
    LCC body multiplies -- so every caller lands on byte-identical
    ``indptr``/``indices`` arrays for the same input edge set,
    whichever system's representation the arcs came from.
    """
    und = simple_patterns(src, dst, n)[1]
    und.sort_indices()
    indptr = und.indptr.astype(np.int64)
    indices = und.indices.astype(np.int64)
    return SimpleView(n=int(n), indptr=indptr, indices=indices,
                      degrees=np.diff(indptr))
