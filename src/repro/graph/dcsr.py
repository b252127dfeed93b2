"""Doubly-compressed sparse row (DCSR), GraphMat's storage scheme.

The paper (Sec. III-C) notes GraphMat "uses a doubly-compressed sparse
row representation": on top of CSR's row compression, rows that are
entirely empty are removed, leaving an index of non-empty row ids.  On
hyper-sparse matrices (scale-free graphs have many zero-in-degree
vertices) this saves memory and lets SpMV skip empty rows, at the cost
of an extra indirection per row -- the structural source of GraphMat's
overhead on small graphs that Sec. IV-A observes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph

__all__ = ["DCSRMatrix"]


@dataclass(frozen=True)
class DCSRMatrix:
    """A sparse boolean/weighted matrix with compressed row index.

    Attributes
    ----------
    n:
        Matrix dimension (always square here: adjacency matrices).
    row_ids:
        ``int64[nzr]`` sorted ids of rows that contain at least one entry.
    row_ptr:
        ``int64[nzr + 1]`` offsets into ``col_idx`` for each *stored* row.
    col_idx:
        ``int64[nnz]`` column indices, sorted within each row.
    values:
        Optional ``float64[nnz]`` entries; ``None`` means pattern-only.
    symmetric:
        As for :class:`~repro.graph.csr.CSRGraph`; :meth:`csr_view`
        carries it.
    """

    n: int
    row_ids: np.ndarray
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray | None = None
    symmetric: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "row_ids", np.ascontiguousarray(self.row_ids, np.int64))
        object.__setattr__(
            self, "row_ptr", np.ascontiguousarray(self.row_ptr, np.int64))
        object.__setattr__(
            self, "col_idx", np.ascontiguousarray(self.col_idx, np.int64))
        if self.row_ids.size + 1 != self.row_ptr.size:
            raise GraphFormatError("row_ptr must have len(row_ids) + 1 entries")
        if self.row_ptr.size and (
                self.row_ptr[0] != 0 or self.row_ptr[-1] != self.col_idx.size):
            raise GraphFormatError("row_ptr bounds do not match nnz")
        if np.any(np.diff(self.row_ptr) <= 0):
            # Doubly-compressed: *every* stored row must be non-empty.
            raise GraphFormatError("DCSR may not store empty rows")
        if self.row_ids.size and (
                np.any(np.diff(self.row_ids) <= 0)
                or self.row_ids[0] < 0 or self.row_ids[-1] >= self.n):
            raise GraphFormatError("row_ids must be sorted, unique, in range")
        if self.values is not None:
            v = np.ascontiguousarray(self.values, np.float64)
            object.__setattr__(self, "values", v)
            if v.shape != self.col_idx.shape:
                raise GraphFormatError("values must align with col_idx")

    # ------------------------------------------------------------------
    @staticmethod
    def from_csr(csr: CSRGraph) -> "DCSRMatrix":
        """Compress away the empty rows of a CSR adjacency."""
        deg = csr.out_degrees()
        row_ids = np.flatnonzero(deg > 0).astype(np.int64)
        row_ptr = np.zeros(row_ids.size + 1, dtype=np.int64)
        np.cumsum(deg[row_ids], out=row_ptr[1:])
        return DCSRMatrix(
            n=csr.n_vertices,
            row_ids=row_ids,
            row_ptr=row_ptr,
            col_idx=csr.col_idx.copy(),
            values=None if csr.weights is None else csr.weights.copy(),
            symmetric=csr.symmetric,
        )

    # ------------------------------------------------------------------
    # Serialization (repro.cache array bundles)
    # ------------------------------------------------------------------
    def to_arrays_map(self, prefix: str = "") -> dict:
        """Flat ``{name: array}`` map for the artifact cache; ``n`` is
        a scalar and travels in the entry's metadata instead."""
        out = {f"{prefix}row_ids": self.row_ids,
               f"{prefix}row_ptr": self.row_ptr,
               f"{prefix}col_idx": self.col_idx}
        if self.values is not None:
            out[f"{prefix}values"] = self.values
        return out

    @staticmethod
    def from_arrays_map(arrays: dict, n: int, prefix: str = "",
                        symmetric: bool = False) -> "DCSRMatrix":
        """Inverse of :meth:`to_arrays_map`; memmap arrays stay mmapped."""
        return DCSRMatrix(n=int(n),
                          row_ids=arrays[f"{prefix}row_ids"],
                          row_ptr=arrays[f"{prefix}row_ptr"],
                          col_idx=arrays[f"{prefix}col_idx"],
                          values=arrays.get(f"{prefix}values"),
                          symmetric=symmetric)

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.col_idx.size)

    @property
    def n_nonempty_rows(self) -> int:
        return int(self.row_ids.size)

    def nbytes(self) -> int:
        total = self.row_ids.nbytes + self.row_ptr.nbytes + self.col_idx.nbytes
        if self.values is not None:
            total += self.values.nbytes
        return total

    def row_sources(self) -> np.ndarray:
        """Per-entry row ids (expanded), used by the GraphMat kernels.

        Memoized read-only, mirroring
        :meth:`~repro.graph.csr.CSRGraph.source_ids`: the CDLP/LCC
        kernels ask for it on every invocation.
        """
        cached = self.__dict__.get("_row_sources")
        if cached is None:
            cached = np.repeat(self.row_ids, np.diff(self.row_ptr))
            cached.setflags(write=False)
            object.__setattr__(self, "_row_sources", cached)
        return cached

    def csr_view(self) -> CSRGraph:
        """The same matrix as a plain CSR (the inverse of
        :meth:`from_csr`) that shares ``col_idx`` and ``values`` -- only
        the ``n + 1`` row pointer is new -- memoized like
        :meth:`row_sources`.  Its
        :meth:`~repro.graph.csr.CSRGraph.transposed` is the matrix's
        other direction."""
        cached = self.__dict__.get("_csr_view")
        if cached is None:
            row_ptr = np.zeros(self.n + 1, dtype=np.int64)
            row_ptr[self.row_ids + 1] = np.diff(self.row_ptr)
            np.cumsum(row_ptr, out=row_ptr)
            cached = CSRGraph(row_ptr=row_ptr, col_idx=self.col_idx,
                              weights=self.values, symmetric=self.symmetric)
            object.__setattr__(self, "_csr_view", cached)
        return cached

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_row_sources", "_csr_view")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Generalized SpMV -- the GraphMat programming model reduces every
    # algorithm to it; PageRank is the kernel that multiplies here.
    # ------------------------------------------------------------------
    def spmv_plus_times(self, x: np.ndarray,
                        pattern_only: bool = False) -> np.ndarray:
        """Arithmetic SpMV: ``y[r] = sum_j A[r, j] * x[j]``.

        Used by GraphMat PageRank, which runs on the adjacency *pattern*
        (``pattern_only=True`` treats every stored value as 1, as the
        unweighted vertex program does even on a weighted matrix).

        An integer-dtype ``x`` against stored float values promotes the
        result to ``float64``; the old ``values.astype(x.dtype)``
        silently truncated every weight toward zero instead.  Floating
        ``x`` keeps the historical dtype and rounding exactly (the
        kernel gate compares bytes).
        """
        use_values = self.values is not None and not pattern_only
        promote = use_values and not np.issubdtype(x.dtype, np.floating)
        out_dtype = np.dtype(np.float64) if promote else x.dtype
        if not self.nnz:
            return np.zeros(self.n, dtype=out_dtype)
        terms = x[self.col_idx]
        if use_values:
            if promote:
                terms = terms * self.values
            else:
                terms = terms * self.values.astype(x.dtype, copy=False)
        sums = np.add.reduceat(terms, self.row_ptr[:-1])
        y = np.zeros(self.n, dtype=out_dtype)
        y[self.row_ids] = sums.astype(out_dtype, copy=False)
        return y

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DCSRMatrix(n={self.n}, nonempty_rows={self.n_nonempty_rows}, "
            f"nnz={self.nnz})"
        )
