"""Compressed sparse row adjacency.

CSR is the representation the paper reports for the Graph500, GAP, and
GraphBIG (Sec. III-C); PowerGraph layers a vertex-cut scheme on top of it
and GraphMat doubly-compresses it: DCSR's index of non-empty rows is
:meth:`CSRGraph.pull_rows`.

Construction is fully vectorized: ``bincount``/``cumsum`` row pointers
plus one value sort of packed ``(src, dst, position)`` keys for the arc
order (:func:`_arc_order`); transposition is the linear
bucket-then-place pass the C systems use.  :meth:`CSRGraph.transposed`
is the one source of in-arcs: no caller passes them beside out-arcs.
"""

from __future__ import annotations

from dataclasses import dataclass

import weakref

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList

__all__ = ["CSRGraph"]


def _check_endpoints(name: str, ids: np.ndarray, n: int) -> None:
    """Raise unless every id is in ``[0, n)``: a negative or too-large
    id silently corrupts a counting pass (or writes out of bounds in C)."""
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        i = int(np.argmax((ids < 0) | (ids >= n)))
        raise GraphFormatError(
            f"{name}[{i}] = {int(ids[i])}: vertex id out of "
            f"range [0, {n})")


#: Packed sort keys stay below this (a Python int: the guard cannot
#: wrap); wider arc lists -- Kronecker scale 19 up -- keep the lexsort.
_PACK_LIMIT = 2 ** 62


def _arc_order(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """The permutation ``np.lexsort((dst, src))`` returns -- arcs by
    source, destination, then input position -- from one value sort.

    ``(src * n + dst) * m + position`` is unique per arc, so a plain
    in-place ``sort()`` (NumPy's vectorized one; no ``argsort``
    indirection, stability moot) orders the keys and the position rides
    out in the low digits; one int64 buffer and the ``arange`` are the
    only temporaries.  Against the lexsort: 4.4 -> 0.4 ms at 32 768
    arcs, 35.5 -> 2.6 at 198 796, 50.4 -> 3.4 at 262 144.
    """
    n, m = int(n), src.size
    if n * n * m >= _PACK_LIMIT:
        return np.lexsort((dst, src))
    key = src * n
    key += dst
    key *= m
    key += np.arange(m, dtype=np.int64)
    key.sort()
    key %= m
    return key


@dataclass(frozen=True)
class CSRGraph:
    """Adjacency in compressed sparse row form.

    Attributes
    ----------
    row_ptr:
        ``int64[n + 1]``; neighbors of ``v`` live in
        ``col_idx[row_ptr[v]:row_ptr[v+1]]``.
    col_idx:
        ``int64[nnz]`` neighbor ids, sorted within each row.
    weights:
        Optional ``float64[nnz]`` aligned with ``col_idx``.
    symmetric:
        Whether the arcs are a symmetrized list (each arc's reverse, of
        the same weight, is an arc), making the CSR its own transpose.
    """

    row_ptr: np.ndarray
    col_idx: np.ndarray
    weights: np.ndarray | None = None
    symmetric: bool = False

    #: Derived-structure caches (set lazily via ``object.__setattr__``;
    #: not dataclass fields, dropped from pickles).
    _MEMO_ATTRS = ("_source_ids", "_transposed", "_weight_split",
                   "_pull_rows", "_max_weight")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(src: np.ndarray, dst: np.ndarray, n: int,
                    weights: np.ndarray | None = None,
                    symmetric: bool = False) -> "CSRGraph":
        """Build CSR from parallel endpoint arrays, in any order: row
        pointers from a counting pass over ``src``, arc order (source,
        destination, then input position) from the one ``O(m log m)``
        sort in :func:`_arc_order`.

        Endpoints are validated against ``[0, n)`` first; mutation
        batches arriving from event streams make that load-bearing.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        _check_endpoints("src", src, n)
        _check_endpoints("dst", dst, n)
        counts = np.bincount(src, minlength=n)
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        order = _arc_order(src, dst, n)
        col_idx = np.ascontiguousarray(dst[order])
        w = None
        if weights is not None:
            w = np.ascontiguousarray(
                np.asarray(weights, dtype=np.float64)[order])
        return CSRGraph(row_ptr=row_ptr, col_idx=col_idx, weights=w,
                        symmetric=symmetric)

    @staticmethod
    def from_edge_list(edges: EdgeList, symmetrize: bool = False) -> "CSRGraph":
        """Build CSR from an :class:`EdgeList`.

        ``symmetrize=True`` inserts both directions of every tuple, which
        is how the shared-memory systems materialize undirected inputs.
        """
        el = edges.symmetrized() if symmetrize else edges
        return CSRGraph.from_arrays(
            el.src, el.dst, el.n_vertices, weights=el.weights,
            symmetric=symmetrize)

    def __post_init__(self) -> None:
        rp = np.ascontiguousarray(self.row_ptr, dtype=np.int64)
        ci = np.ascontiguousarray(self.col_idx, dtype=np.int64)
        object.__setattr__(self, "row_ptr", rp)
        object.__setattr__(self, "col_idx", ci)
        if rp.ndim != 1 or rp.size < 1:
            raise GraphFormatError("row_ptr must be a non-empty 1-D array")
        if rp[0] != 0 or rp[-1] != ci.size:
            raise GraphFormatError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(rp) < 0):
            raise GraphFormatError("row_ptr must be non-decreasing")
        if self.weights is not None:
            w = np.ascontiguousarray(self.weights, dtype=np.float64)
            object.__setattr__(self, "weights", w)
            if w.shape != ci.shape:
                raise GraphFormatError("weights must align with col_idx")

    def __getstate__(self) -> dict:
        """Pickle only the defining arrays, never the memo caches
        (workers rebuild them lazily; shipping them would double the
        payload)."""
        return {k: v for k, v in self.__dict__.items()
                if k not in self._MEMO_ATTRS}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Serialization (repro.cache array bundles)
    # ------------------------------------------------------------------
    def to_arrays_map(self, prefix: str = "") -> dict:
        """Flat ``{name: array}`` map for the artifact cache; several
        CSRs can share one bundle via distinct prefixes."""
        out = {f"{prefix}row_ptr": self.row_ptr,
               f"{prefix}col_idx": self.col_idx}
        if self.weights is not None:
            out[f"{prefix}weights"] = self.weights
        return out

    @staticmethod
    def from_arrays_map(arrays: dict, prefix: str = "",
                        symmetric: bool = False) -> "CSRGraph":
        """Inverse of :meth:`to_arrays_map`.  Memmap-backed arrays pass
        through unchanged (``ascontiguousarray`` is a no-op on them),
        so a cache-restored CSR stays zero-copy."""
        return CSRGraph(row_ptr=arrays[f"{prefix}row_ptr"],
                        col_idx=arrays[f"{prefix}col_idx"],
                        weights=arrays.get(f"{prefix}weights"),
                        symmetric=symmetric)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self.row_ptr.size - 1

    @property
    def n_edges(self) -> int:
        """Number of stored (directed) arcs."""
        return int(self.col_idx.size)

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def neighbors(self, v: int) -> np.ndarray:
        """View (not copy) of ``v``'s neighbor list."""
        return self.col_idx[self.row_ptr[v]:self.row_ptr[v + 1]]

    def nbytes(self) -> int:
        total = self.row_ptr.nbytes + self.col_idx.nbytes
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def transposed(self) -> "CSRGraph":
        """CSR of the reverse graph (i.e. CSC of this one): itself if
        ``symmetric`` (a computed one differs at most in the order of
        parallel arcs' weights), else the attached one, made on demand.

        Arcs are already in source order, so one stable linear counting
        pass by destination (SciPy's ``csr -> csc``) lands them exactly
        where ``from_arrays(col_idx, source_ids())`` would, parallel
        arcs included, without the sort -- streaming repair reads the
        in-arcs of every fresh snapshot, and only a snapshot of a
        stream that was not symmetrized pays for this pass.  The C pass
        trusts its indices, which ``__post_init__`` never looked at,
        hence the check.
        """
        if self.symmetric:
            return self
        link = self.__dict__.get("_transposed")
        cached = link() if isinstance(link, weakref.ref) else link
        if cached is None:
            import scipy.sparse as sp

            n = self.n_vertices
            _check_endpoints("col_idx", self.col_idx, n)
            data = (self.weights if self.weights is not None
                    else np.zeros(self.n_edges, dtype=np.int8))
            csc = sp.csr_matrix((data, self.col_idx, self.row_ptr),
                                shape=(n, n)).tocsc()
            cached = self.attach_transpose(CSRGraph(
                row_ptr=csc.indptr, col_idx=csc.indices,
                weights=None if self.weights is None else csc.data))
        return cached

    def attach_transpose(self, inn: "CSRGraph") -> "CSRGraph":
        """Make ``inn`` (e.g. a transpose read back from a cache bundle)
        this CSR's :meth:`transposed`, and this CSR ``inn``'s, weakly:
        the pair forms no reference cycle.  Returns ``inn``."""
        object.__setattr__(self, "_transposed", inn)
        object.__setattr__(inn, "_transposed", weakref.ref(self))
        return inn

    def weight_split(self, delta: float) -> tuple["CSRGraph", "CSRGraph"]:
        """``(light, heavy)``: the arcs with ``weight < delta`` and the
        rest, each a CSR over the same vertices in the original arc order
        -- delta-stepping's two relaxation sets.

        Memoized for one ``delta`` at a time (a new one replaces it).
        Filtering keeps arc order, so it commutes with the stable
        :meth:`transposed`: the parts of the transpose are the
        transposes of the parts.  A part of a symmetrized multigraph is
        symmetrized too, since both directions of an edge weigh the same.
        """
        cached = self.__dict__.get("_weight_split")
        if cached is None or cached[0] != delta:
            if self.weights is None:
                raise GraphFormatError("graph is unweighted")
            light = self.weights < delta
            heavy = ~light
            before = np.zeros(self.n_edges + 1, dtype=np.int64)
            np.cumsum(light, out=before[1:])
            light_ptr = before[self.row_ptr]
            parts = ((light_ptr, light), (self.row_ptr - light_ptr, heavy))
            cached = (delta, tuple(
                CSRGraph(ptr, self.col_idx[keep], self.weights[keep],
                         self.symmetric) for ptr, keep in parts))
            object.__setattr__(self, "_weight_split", cached)
        return cached[1]

    def source_ids(self) -> np.ndarray:
        """Expand ``row_ptr`` back into a per-arc source array.

        Memoized and returned read-only: PageRank sweeps, CDLP rounds,
        and WCC all ask for it repeatedly, and before memoization each
        request re-ran the ``np.repeat`` expansion over every arc.
        """
        cached = self.__dict__.get("_source_ids")
        if cached is None:
            cached = np.repeat(
                np.arange(self.n_vertices, dtype=np.int64),
                self.out_degrees())
            cached.setflags(write=False)
            object.__setattr__(self, "_source_ids", cached)
        return cached

    def pull_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, starts)``: the non-empty rows and the first arc of
        each, the segments a pull reduces over
        (:func:`repro.graph.frontier.pull_min`).  Memoized: every dense
        relaxation round over this CSR asks for the same two arrays."""
        cached = self.__dict__.get("_pull_rows")
        if cached is None:
            rows = np.flatnonzero(self.out_degrees())
            cached = (rows, self.row_ptr[rows])
            object.__setattr__(self, "_pull_rows", cached)
        return cached

    def max_weight(self) -> float:
        """The largest arc weight (``-inf`` without arcs), memoized."""
        cached = self.__dict__.get("_max_weight")
        if cached is None:
            if self.weights is None:
                raise GraphFormatError("graph is unweighted")
            cached = float(self.weights.max(initial=-np.inf))
            object.__setattr__(self, "_max_weight", cached)
        return cached

    def row_block(self, lo: int, hi: int) -> "CSRGraph":
        """Rows ``lo .. hi - 1`` as a CSR of their own (row ``lo``
        becomes row 0; ids in ``col_idx`` keep their meaning).  Arcs
        and weights are views; only ``row_ptr`` is rebased.  Filtering
        keeps arc order, so the parts of a block are the blocks of the
        parts (:meth:`weight_split`)."""
        ptr = self.row_ptr[lo:hi + 1]
        a0, a1 = int(ptr[0]), int(ptr[-1])
        return CSRGraph(
            row_ptr=ptr - a0, col_idx=self.col_idx[a0:a1],
            weights=None if self.weights is None else self.weights[a0:a1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.n_vertices}, arcs={self.n_edges}, "
            f"weighted={self.weighted})"
        )
