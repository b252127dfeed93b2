"""Batched dynamic graphs: a mutation log over the immutable CSR.

The paper evaluates every system on *static* snapshots; streaming
evaluations (Ammar & Özsu, PAPERS.md) show mutation-under-query is
where implementations actually diverge.  This module is the ingest
side of that scenario family: :class:`MutationBatch` (edge inserts +
deletes) and :class:`DynamicGraph` (the mutable adjacency).

Representation.  A dynamic graph is a *simple* directed graph -- a set
of distinct ``(src, dst)`` arcs with an optional weight each -- stored
as one sorted ``int64`` array of combined keys ``src * n + dst`` (plus
an aligned weight array).  Batch application is three vectorized
passes: delete lookup via ``searchsorted``, last-write-wins dedup of
the inserts, and a sorted merge (``np.insert``).  No Python-level loop
ever touches an edge.

Why sorted keys: for *distinct* pairs, ascending ``src * n + dst``
order is exactly the ``np.lexsort((dst, src))`` order
:meth:`CSRGraph.from_arrays` produces, so :meth:`DynamicGraph.snapshot`
can decode the key array straight into a CSR that is **byte-identical**
to rebuilding ``CSRGraph.from_arrays`` from the replayed edge list --
the property the hypothesis suite in ``tests/graph/test_dynamic.py``
pins down and the incremental kernels' differential gate relies on.

Aliasing discipline: :meth:`DynamicGraph.apply` never mutates an array
a previously returned snapshot may share (copy-on-write before any
in-place weight update), so snapshots stay immutable forever.

Semantics of one batch (matching an OpsLog-style event stream):

* deletes apply first, then inserts;
* deleting an absent arc is a no-op;
* inserting an existing arc overwrites its weight (last write wins,
  also within the batch);
* endpoints are validated against ``[0, n)`` up front, raising
  :class:`~repro.errors.GraphFormatError` naming the offending index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, _arc_order
from repro.graph.edgelist import EdgeList
from repro.graph.frontier import sorted_unique

__all__ = ["MutationBatch", "AppliedBatch", "DynamicGraph"]

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_W = np.empty(0, dtype=np.float64)


def _ids(arr, name: str) -> np.ndarray:
    a = np.ascontiguousarray(arr, dtype=np.int64)
    if a.ndim != 1:
        raise GraphFormatError(f"{name} must be a 1-D integer array")
    return a


@dataclass(frozen=True)
class MutationBatch:
    """One batch of edge mutations: deletes applied first, then inserts.

    All arrays are ``int64`` endpoint ids; ``insert_weights`` is an
    optional aligned ``float64`` array (required iff the target
    :class:`DynamicGraph` is weighted).
    """

    insert_src: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    insert_dst: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    insert_weights: np.ndarray | None = None
    delete_src: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    delete_dst: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)

    def __post_init__(self) -> None:
        for name in ("insert_src", "insert_dst", "delete_src",
                     "delete_dst"):
            object.__setattr__(self, name, _ids(getattr(self, name),
                                                name))
        if self.insert_src.shape != self.insert_dst.shape:
            raise GraphFormatError(
                f"insert src/dst length mismatch: "
                f"{self.insert_src.size} vs {self.insert_dst.size}")
        if self.delete_src.shape != self.delete_dst.shape:
            raise GraphFormatError(
                f"delete src/dst length mismatch: "
                f"{self.delete_src.size} vs {self.delete_dst.size}")
        if self.insert_weights is not None:
            w = np.ascontiguousarray(self.insert_weights,
                                     dtype=np.float64)
            object.__setattr__(self, "insert_weights", w)
            if w.shape != self.insert_src.shape:
                raise GraphFormatError(
                    "insert_weights length must match insert edge count")

    @property
    def n_inserts(self) -> int:
        return int(self.insert_src.size)

    @property
    def n_deletes(self) -> int:
        return int(self.delete_src.size)

    def symmetrized(self) -> "MutationBatch":
        """Both directions of every insert *and* delete (loops single).

        Event-stream scenarios treat edges as undirected, exactly like
        :meth:`repro.graph.edgelist.EdgeList.symmetrized`; the dynamic
        graph itself stays a directed arc set.
        """
        loops = self.insert_src == self.insert_dst
        ins_s = np.concatenate([self.insert_src,
                                self.insert_dst[~loops]])
        ins_d = np.concatenate([self.insert_dst,
                                self.insert_src[~loops]])
        w = None
        if self.insert_weights is not None:
            w = np.concatenate([self.insert_weights,
                                self.insert_weights[~loops]])
        dloops = self.delete_src == self.delete_dst
        del_s = np.concatenate([self.delete_src,
                                self.delete_dst[~dloops]])
        del_d = np.concatenate([self.delete_dst,
                                self.delete_src[~dloops]])
        return MutationBatch(insert_src=ins_s, insert_dst=ins_d,
                             insert_weights=w, delete_src=del_s,
                             delete_dst=del_d)


@dataclass(frozen=True)
class AppliedBatch:
    """The *effective* delta one :meth:`DynamicGraph.apply` produced.

    ``inserted_*`` is the deduplicated (last-write-wins) insert set --
    every arc the batch asserted present, including pure weight updates
    and reinserts.  ``removed_*`` is every arc that was present before
    the batch and was deleted *or* had its weight changed (a weight
    change is a remove + insert as far as path repair is concerned;
    deleted-then-reinserted arcs appear in both sets).  The incremental
    kernels consume exactly these two conservative sets.
    """

    inserted_src: np.ndarray
    inserted_dst: np.ndarray
    inserted_weights: np.ndarray | None
    removed_src: np.ndarray
    removed_dst: np.ndarray
    #: Arcs newly present (were absent before the insert phase).
    n_new: int
    #: Existing arcs whose weight the insert phase overwrote.
    n_updated: int
    #: Arcs the delete phase actually removed.
    n_deleted: int


class DynamicGraph:
    """A mutable simple directed graph over a fixed vertex set.

    ``n`` is fixed at construction (mutations add and remove arcs, not
    vertices -- the Kronecker id space is dense).  ``weighted`` decides
    whether batches must carry insert weights.
    """

    __slots__ = ("n", "weighted", "_keys", "_w")

    def __init__(self, n: int, *, weighted: bool = False):
        n = int(n)
        if n < 0:
            raise GraphFormatError("n must be non-negative")
        self.n = n
        self.weighted = bool(weighted)
        self._keys = _EMPTY_IDS
        self._w = _EMPTY_W if weighted else None

    @classmethod
    def from_edge_list(cls, edges: EdgeList, *,
                       symmetrize: bool = False) -> "DynamicGraph":
        """Seed a dynamic graph from an edge list (one insert batch).

        Duplicate tuples collapse under last-write-wins, so the result
        is the *simple* graph of the list (unlike
        :meth:`CSRGraph.from_edge_list`, which keeps parallel arcs).
        """
        g = cls(edges.n_vertices, weighted=edges.weighted)
        batch = MutationBatch(insert_src=edges.src,
                              insert_dst=edges.dst,
                              insert_weights=edges.weights)
        if symmetrize:
            batch = batch.symmetrized()
        g.apply(batch)
        return g

    # ------------------------------------------------------------------
    @property
    def n_arcs(self) -> int:
        return int(self._keys.size)

    def arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Decode the live arc set as ``(src, dst, weights)`` sorted by
        ``(src, dst)``."""
        if self.n == 0:
            return (_EMPTY_IDS, _EMPTY_IDS,
                    _EMPTY_W if self.weighted else None)
        return (self._keys // self.n, self._keys % self.n,
                None if self._w is None else self._w.copy())

    # ------------------------------------------------------------------
    def _check_ids(self, arr: np.ndarray, kind: str,
                   name: str) -> None:
        if arr.size == 0:
            return
        bad = (arr < 0) | (arr >= self.n)
        if bad.any():
            i = int(np.argmax(bad))
            raise GraphFormatError(
                f"{kind} {name}[{i}] = {int(arr[i])}: vertex id out of "
                f"range [0, {self.n})")

    def apply(self, batch: MutationBatch) -> AppliedBatch:
        """Apply one batch; return its effective delta.

        Deletes first, then inserts; see the module docstring for the
        full semantics.  Never mutates arrays shared with an earlier
        :meth:`snapshot`.
        """
        self._check_ids(batch.delete_src, "delete", "src")
        self._check_ids(batch.delete_dst, "delete", "dst")
        self._check_ids(batch.insert_src, "insert", "src")
        self._check_ids(batch.insert_dst, "insert", "dst")
        if self.weighted and batch.n_inserts and \
                batch.insert_weights is None:
            raise GraphFormatError(
                "weighted dynamic graph requires insert_weights")
        if not self.weighted and batch.insert_weights is not None:
            raise GraphFormatError(
                "unweighted dynamic graph got insert_weights")

        n = self.n
        keys, w = self._keys, self._w

        # -- delete phase ------------------------------------------------
        removed_keys = _EMPTY_IDS
        if batch.n_deletes:
            dkeys = sorted_unique(batch.delete_src * np.int64(n)
                                  + batch.delete_dst)
            pos = np.searchsorted(keys, dkeys)
            ok = pos < keys.size
            present = np.zeros(dkeys.size, dtype=bool)
            present[ok] = keys[pos[ok]] == dkeys[ok]
            removed_keys = dkeys[present]
            if removed_keys.size:
                keep = np.ones(keys.size, dtype=bool)
                keep[pos[present]] = False
                keys = keys[keep]          # fresh arrays: old snapshot
                if w is not None:          # references stay intact
                    w = w[keep]
        n_deleted = int(removed_keys.size)

        # -- insert phase (last-write-wins dedup, sorted merge) ----------
        n_new = n_updated = 0
        ins_keys = _EMPTY_IDS
        ins_w = _EMPTY_W if self.weighted else None
        changed_keys = _EMPTY_IDS
        if batch.n_inserts:
            ikeys = batch.insert_src * np.int64(n) + batch.insert_dst
            order = _arc_order(batch.insert_src, batch.insert_dst, n)
            sk = ikeys[order]
            last = np.ones(sk.size, dtype=bool)
            last[:-1] = sk[1:] != sk[:-1]
            ins_keys = sk[last]
            if self.weighted:
                ins_w = batch.insert_weights[order][last]
            pos = np.searchsorted(keys, ins_keys)
            ok = pos < keys.size
            present = np.zeros(ins_keys.size, dtype=bool)
            present[ok] = keys[pos[ok]] == ins_keys[ok]
            n_updated = int(present.sum())
            if n_updated and w is not None:
                old = w[pos[present]]
                new = ins_w[present]
                diff = old != new
                changed_keys = ins_keys[present][diff]
                if changed_keys.size:
                    if w is self._w:       # no delete copied it yet
                        w = w.copy()       # copy-on-write for snapshots
                    w[pos[present][diff]] = new[diff]
            fresh = ~present
            if fresh.any():
                at = pos[fresh]
                n_new = int(fresh.sum())
                keys = np.insert(keys, at, ins_keys[fresh])
                if w is not None:
                    w = np.insert(w, at, ins_w[fresh])

        self._keys, self._w = keys, w

        # A weight change is a remove + insert for path repair.
        if changed_keys.size:
            removed_keys = sorted_unique(np.concatenate([removed_keys,
                                                         changed_keys]))
        if n == 0:
            rs = rd = isrc = idst = _EMPTY_IDS
        else:
            rs, rd = removed_keys // n, removed_keys % n
            isrc, idst = ins_keys // n, ins_keys % n
        return AppliedBatch(
            inserted_src=isrc, inserted_dst=idst,
            inserted_weights=ins_w if self.weighted else None,
            removed_src=rs, removed_dst=rd,
            n_new=n_new, n_updated=n_updated, n_deleted=n_deleted)

    # ------------------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """Materialize the live arc set as an immutable CSR.

        Byte-identical to ``CSRGraph.from_arrays`` over the replayed
        edge list: the keys are already in ``lexsort((dst, src))``
        order, so this is a pure decode -- ``O(m + n)``, no sort.
        """
        n = self.n
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        if n == 0 or not self._keys.size:
            return CSRGraph(row_ptr=row_ptr, col_idx=_EMPTY_IDS.copy(),
                            weights=(_EMPTY_W.copy() if self.weighted
                                     else None))
        src = self._keys // n
        np.cumsum(np.bincount(src, minlength=n), out=row_ptr[1:])
        # ``dst = key - src * n``: the remainder without a second
        # integer division, in a fresh array; ``_w`` is copy-on-write
        # (see apply), so sharing it keeps the snapshot immutable.
        return CSRGraph(row_ptr=row_ptr, col_idx=self._keys - src * n,
                        weights=self._w)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DynamicGraph(n={self.n}, arcs={self.n_arcs}, "
                f"weighted={self.weighted})")
