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
the inserts, and a sorted merge (one mask over the merged length,
shared by the key and weight arrays).  No Python-level loop ever
touches an edge.  ``apply`` also keeps every vertex's out-degree, so a
snapshot's row pointers are a cumsum over ``n``, not a count over the
arcs.

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

Undirected streams.  :meth:`MutationBatch.symmetrized` writes each
tuple's mirror right after it, so last-write-wins gives both arcs of
an edge the weight of the last tuple that touched it -- one weight per
undirected edge, the rule :meth:`EdgeList.symmetrized` follows on the
static path.  Such a batch is marked ``symmetric``, and a
:class:`DynamicGraph` fed only marked batches records that it is its
own transpose and says so on every snapshot
(:attr:`CSRGraph.symmetric`), so repair reads the in-arcs from the
snapshot itself.  One unmarked batch drops the record for good: a
dynamic graph is a general arc set, so that is not an error.
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
    :class:`DynamicGraph` is weighted).  ``symmetric`` is set by
    :meth:`symmetrized` only: applying the batch keeps a graph its own
    transpose.
    """

    insert_src: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    insert_dst: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    insert_weights: np.ndarray | None = None
    delete_src: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    delete_dst: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    symmetric: bool = field(default=False, init=False)

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
        """Both directions of every insert *and* delete (loops single),
        each mirror right after its tuple, marked ``symmetric``.

        Event-stream scenarios treat edges as undirected, exactly like
        :meth:`repro.graph.edgelist.EdgeList.symmetrized`; the dynamic
        graph itself stays a directed arc set.  Because a mirror follows
        its tuple, last-write-wins leaves both arcs of ``{u, v}`` the
        weight of the last tuple that touched it, whichever way round
        that tuple was written.
        """
        ins_s, ins_d, rep = _with_mirrors(self.insert_src, self.insert_dst)
        w = None
        if self.insert_weights is not None:
            w = np.repeat(self.insert_weights, rep)
        del_s, del_d, _ = _with_mirrors(self.delete_src, self.delete_dst)
        batch = MutationBatch(insert_src=ins_s, insert_dst=ins_d,
                              insert_weights=w, delete_src=del_s,
                              delete_dst=del_d)
        object.__setattr__(batch, "symmetric", True)
        return batch


def _with_mirrors(src: np.ndarray, dst: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst)`` with each non-loop pair followed by its mirror;
    also the per-pair repeat count (1 for a loop, else 2) that carries
    any aligned array along."""
    rep = np.where(src == dst, 1, 2)
    s, d = np.repeat(src, rep), np.repeat(dst, rep)
    mirror = (np.cumsum(rep) - 1)[rep == 2]
    s[mirror], d[mirror] = d[mirror - 1], s[mirror - 1]
    return s, d, rep


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
    whether batches must carry insert weights.  ``symmetric`` holds
    while every applied batch was marked so (see the module docstring).
    """

    __slots__ = ("n", "weighted", "symmetric", "_keys", "_w", "_deg")

    def __init__(self, n: int, *, weighted: bool = False):
        n = int(n)
        if n < 0:
            raise GraphFormatError("n must be non-negative")
        self.n = n
        self.weighted = bool(weighted)
        self.symmetric = True
        self._keys = _EMPTY_IDS
        self._w = _EMPTY_W if weighted else None
        self._deg = np.zeros(n, dtype=np.int64)

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
                self._deg -= np.bincount(removed_keys // n, minlength=n)
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
                # ``pos`` ascends, so fresh arc ``j`` lands at
                # ``pos + j`` of the merged array; one mask places the
                # survivors of both arrays around them.
                slot = pos[fresh] + np.arange(fresh.sum())
                n_new = int(slot.size)
                old = np.ones(keys.size + n_new, dtype=bool)
                old[slot] = False
                keys = _merged(keys, ins_keys[fresh], slot, old)
                if w is not None:
                    w = _merged(w, ins_w[fresh], slot, old)
                self._deg += np.bincount(ins_keys[fresh] // n,
                                         minlength=n)

        self._keys, self._w = keys, w
        self.symmetric = self.symmetric and batch.symmetric

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
        """Materialize the live arc set as an immutable CSR, marked
        ``symmetric`` while the graph's record holds.

        Byte-identical to ``CSRGraph.from_arrays`` over the replayed
        edge list: the keys are already in ``lexsort((dst, src))``
        order, so this is a pure decode -- ``O(m + n)``, no sort.
        """
        n = self.n
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        if n == 0 or not self._keys.size:
            return CSRGraph(row_ptr=row_ptr, col_idx=_EMPTY_IDS.copy(),
                            weights=(_EMPTY_W.copy() if self.weighted
                                     else None),
                            symmetric=self.symmetric)
        np.cumsum(self._deg, out=row_ptr[1:])
        # ``dst = key - (key // n) * n``: the remainder by the one
        # integer division NumPy does fast, built in place in a fresh
        # array; ``_w`` is copy-on-write (see apply), so sharing it
        # keeps the snapshot immutable.
        col_idx = self._keys // n
        col_idx *= n
        np.subtract(self._keys, col_idx, out=col_idx)
        return CSRGraph(row_ptr=row_ptr, col_idx=col_idx, weights=self._w,
                        symmetric=self.symmetric)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DynamicGraph(n={self.n}, arcs={self.n_arcs}, "
                f"weighted={self.weighted})")


def _merged(old_values: np.ndarray, new_values: np.ndarray,
            slot: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``old_values`` at the ``old`` positions and ``new_values`` at
    ``slot``: what ``np.insert`` builds, with the mask made once."""
    out = np.empty(old.size, dtype=old_values.dtype)
    out[slot] = new_values
    out[old] = old_values
    return out
