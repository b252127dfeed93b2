"""Property + unit tests for the dynamic graph (mutation-log ingest).

The load-bearing property: after ANY interleaving of insert/delete
batches -- duplicates, self-loops, weight overwrites, deletes of absent
arcs included -- :meth:`DynamicGraph.snapshot` is **byte-identical** to
``CSRGraph.from_arrays`` over the replayed arc set.  The reference
model is a plain dict ``{(src, dst): weight}`` replaying the same
semantics (deletes first, last-write-wins inserts).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, MutationBatch
from repro.graph.edgelist import EdgeList


def model_apply(model: dict, batch: MutationBatch) -> None:
    """Dict-based oracle: deletes first, then last-write-wins inserts."""
    for u, v in zip(batch.delete_src.tolist(), batch.delete_dst.tolist()):
        model.pop((u, v), None)
    w = batch.insert_weights
    for i, (u, v) in enumerate(zip(batch.insert_src.tolist(),
                                   batch.insert_dst.tolist())):
        model[(u, v)] = None if w is None else float(w[i])


def model_csr(model: dict, n: int, weighted: bool) -> CSRGraph:
    items = sorted(model.items())
    src = np.array([k[0] for k, _ in items], dtype=np.int64)
    dst = np.array([k[1] for k, _ in items], dtype=np.int64)
    weights = (np.array([v for _, v in items], dtype=np.float64)
               if weighted else None)
    return CSRGraph.from_arrays(src, dst, n, weights=weights)


def _has_arc(g: DynamicGraph, u: int, v: int) -> bool:
    src, dst, _ = g.arcs()
    return bool(np.any((src == u) & (dst == v)))


def assert_snapshots_equal(got: CSRGraph, want: CSRGraph) -> None:
    assert got.row_ptr.tobytes() == want.row_ptr.tobytes()
    assert got.col_idx.tobytes() == want.col_idx.tobytes()
    if want.weights is None:
        assert got.weights is None
    else:
        assert got.weights.tobytes() == want.weights.tobytes()


@st.composite
def batch_sequences(draw, max_n=24, max_batches=6, max_ops=20):
    n = draw(st.integers(min_value=1, max_value=max_n))
    weighted = draw(st.booleans())
    n_batches = draw(st.integers(min_value=1, max_value=max_batches))
    batches = []
    for _ in range(n_batches):
        ki = draw(st.integers(min_value=0, max_value=max_ops))
        kd = draw(st.integers(min_value=0, max_value=max_ops))
        ins_s = draw(st.lists(st.integers(0, n - 1), min_size=ki,
                              max_size=ki))
        ins_d = draw(st.lists(st.integers(0, n - 1), min_size=ki,
                              max_size=ki))
        del_s = draw(st.lists(st.integers(0, n - 1), min_size=kd,
                              max_size=kd))
        del_d = draw(st.lists(st.integers(0, n - 1), min_size=kd,
                              max_size=kd))
        w = None
        if weighted:
            w = np.array(draw(st.lists(
                st.floats(0.001, 10.0, allow_nan=False),
                min_size=ki, max_size=ki)))
        batches.append(MutationBatch(
            insert_src=np.array(ins_s, dtype=np.int64),
            insert_dst=np.array(ins_d, dtype=np.int64),
            insert_weights=w,
            delete_src=np.array(del_s, dtype=np.int64),
            delete_dst=np.array(del_d, dtype=np.int64)))
    return n, weighted, batches


@given(batch_sequences())
@settings(max_examples=80, deadline=None)
def test_snapshot_byte_identical_to_rebuild(case):
    """The tentpole property: snapshot == from_arrays over the replay."""
    n, weighted, batches = case
    g = DynamicGraph(n, weighted=weighted)
    model: dict = {}
    for batch in batches:
        g.apply(batch)
        model_apply(model, batch)
        assert_snapshots_equal(g.snapshot(), model_csr(model, n, weighted))


@given(batch_sequences(max_batches=4))
@settings(max_examples=40, deadline=None)
def test_snapshots_immutable_under_later_batches(case):
    """Copy-on-write: an old snapshot never changes, byte for byte."""
    n, weighted, batches = case
    g = DynamicGraph(n, weighted=weighted)
    taken = []
    for batch in batches:
        g.apply(batch)
        snap = g.snapshot()
        taken.append((snap, snap.row_ptr.copy(), snap.col_idx.copy(),
                      None if snap.weights is None
                      else snap.weights.copy()))
    for snap, rp, ci, w in taken:
        assert snap.row_ptr.tobytes() == rp.tobytes()
        assert snap.col_idx.tobytes() == ci.tobytes()
        if w is not None:
            assert snap.weights.tobytes() == w.tobytes()


@given(batch_sequences(max_batches=3))
@settings(max_examples=40, deadline=None)
def test_applied_delta_reconstructs_arc_set(case):
    """inserted/removed arc sets replayed on a dict match the graph."""
    n, weighted, batches = case
    g = DynamicGraph(n, weighted=weighted)
    arcs: set = set()
    for batch in batches:
        applied = g.apply(batch)
        arcs -= set(zip(applied.removed_src.tolist(),
                        applied.removed_dst.tolist()))
        arcs |= set(zip(applied.inserted_src.tolist(),
                        applied.inserted_dst.tolist()))
        src, dst, _ = g.arcs()
        assert arcs == set(zip(src.tolist(), dst.tolist()))


@st.composite
def symmetrized_sequences(draw):
    """Batch sequences, symmetrized; in a batch, an edge may come both
    ways round with different weights, and deletes may miss."""
    n, weighted, batches = draw(batch_sequences())
    return n, weighted, [b.symmetrized() for b in batches]


def _unmarked(snap: CSRGraph) -> CSRGraph:
    return CSRGraph(snap.row_ptr, snap.col_idx, snap.weights)


@given(symmetrized_sequences(), st.data())
@settings(max_examples=80, deadline=None)
def test_symmetrized_stream_snapshots_are_their_own_transpose(case, data):
    """One weight per undirected edge: every snapshot is marked, its
    counting transpose is itself byte for byte, its kept degrees never
    drift from the keys, and one unmarked batch drops the record."""
    n, weighted, batches = case
    g = DynamicGraph(n, weighted=weighted)
    model: dict = {}
    for batch in batches:
        g.apply(batch)
        model_apply(model, batch)
        snap = g.snapshot()
        assert snap.symmetric and snap.transposed() is snap
        assert_snapshots_equal(snap, model_csr(model, n, weighted))
        assert_snapshots_equal(_unmarked(snap).transposed(), snap)
        src, _, _ = g.arcs()                # the keys' ``// n`` decode
        decoded = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=decoded[1:])
        assert snap.row_ptr.tobytes() == decoded.tobytes()

    # A directed batch (possibly empty) drops the record for good.
    k = data.draw(st.integers(0, 3))
    ends = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
    g.apply(MutationBatch(
        insert_src=data.draw(ends), insert_dst=data.draw(ends),
        insert_weights=np.ones(k) if weighted else None))
    g.apply(MutationBatch().symmetrized())
    snap = g.snapshot()
    assert not g.symmetric and not snap.symmetric
    rev = snap.transposed()
    assert rev is not snap
    assert_snapshots_equal(rev, CSRGraph.from_arrays(
        snap.col_idx, snap.source_ids(), n, weights=snap.weights))


class TestSemantics:
    def test_delete_of_absent_is_noop(self):
        g = DynamicGraph(4)
        g.apply(MutationBatch(insert_src=[0], insert_dst=[1]))
        applied = g.apply(MutationBatch(delete_src=[2, 0],
                                        delete_dst=[3, 1]))
        assert applied.n_deleted == 1
        assert applied.removed_src.tolist() == [0]
        assert g.n_arcs == 0

    def test_duplicate_insert_last_write_wins(self):
        g = DynamicGraph(4, weighted=True)
        applied = g.apply(MutationBatch(
            insert_src=[1, 1], insert_dst=[2, 2],
            insert_weights=[5.0, 7.0]))
        assert applied.n_new == 1
        _, _, w = g.arcs()
        assert w.tolist() == [7.0]

    def test_reinsert_overwrites_weight_and_reports_removed(self):
        g = DynamicGraph(4, weighted=True)
        g.apply(MutationBatch(insert_src=[1], insert_dst=[2],
                              insert_weights=[5.0]))
        applied = g.apply(MutationBatch(insert_src=[1], insert_dst=[2],
                                        insert_weights=[6.0]))
        assert applied.n_new == 0
        assert applied.n_updated == 1
        # A weight change is a remove + insert for path repair.
        assert applied.removed_src.tolist() == [1]
        assert applied.inserted_src.tolist() == [1]

    def test_same_weight_reinsert_not_removed(self):
        g = DynamicGraph(4, weighted=True)
        g.apply(MutationBatch(insert_src=[1], insert_dst=[2],
                              insert_weights=[5.0]))
        applied = g.apply(MutationBatch(insert_src=[1], insert_dst=[2],
                                        insert_weights=[5.0]))
        assert applied.n_updated == 1
        assert applied.removed_src.size == 0

    def test_delete_then_reinsert_in_one_batch(self):
        g = DynamicGraph(4)
        g.apply(MutationBatch(insert_src=[1], insert_dst=[2]))
        applied = g.apply(MutationBatch(
            insert_src=[1], insert_dst=[2],
            delete_src=[1], delete_dst=[2]))
        # Deletes first: the arc is removed, then re-inserted fresh.
        assert applied.n_deleted == 1 and applied.n_new == 1
        assert _has_arc(g, 1, 2)

    def test_self_loops_stored(self):
        g = DynamicGraph(3)
        g.apply(MutationBatch(insert_src=[2], insert_dst=[2]))
        assert _has_arc(g, 2, 2)
        snap = g.snapshot()
        assert snap.neighbors(2).tolist() == [2]

    def test_symmetrized_batch(self):
        # Each mirror follows its tuple; loops stay single.
        b = MutationBatch(insert_src=[0, 1, 2], insert_dst=[1, 1, 0],
                          insert_weights=[1.0, 2.0, 3.0],
                          delete_src=[2], delete_dst=[3]).symmetrized()
        assert list(zip(b.insert_src.tolist(), b.insert_dst.tolist(),
                        b.insert_weights.tolist())) == [
            (0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0),
            (0, 2, 3.0)]
        assert list(zip(b.delete_src.tolist(),
                        b.delete_dst.tolist())) == [(2, 3), (3, 2)]
        assert b.symmetric and not MutationBatch().symmetric

    def test_both_orientations_in_one_batch_get_the_later_weight(self):
        g = DynamicGraph(3, weighted=True)
        g.apply(MutationBatch(insert_src=[0, 1], insert_dst=[1, 0],
                              insert_weights=[5.0, 7.0]).symmetrized())
        assert g.arcs()[2].tolist() == [7.0, 7.0]
        assert g.snapshot().symmetric

    def test_from_edge_list_dedupes(self):
        el = EdgeList(np.array([0, 0]), np.array([1, 1]), 3,
                      weights=np.array([1.0, 2.0]))
        g = DynamicGraph.from_edge_list(el)
        assert g.n_arcs == 1
        _, _, w = g.arcs()
        assert w.tolist() == [2.0]     # last write wins


class TestValidation:
    def test_insert_id_out_of_range_names_index(self):
        g = DynamicGraph(8)
        with pytest.raises(GraphFormatError,
                           match=r"insert src\[1\] = 41"):
            g.apply(MutationBatch(insert_src=[0, 41],
                                  insert_dst=[1, 2]))

    def test_negative_delete_id_names_index(self):
        g = DynamicGraph(8)
        with pytest.raises(GraphFormatError,
                           match=r"delete dst\[0\] = -3"):
            g.apply(MutationBatch(delete_src=[0], delete_dst=[-3]))

    def test_length_mismatch(self):
        with pytest.raises(GraphFormatError, match="mismatch"):
            MutationBatch(insert_src=[0, 1], insert_dst=[1])

    def test_weights_required_iff_weighted(self):
        g = DynamicGraph(4, weighted=True)
        with pytest.raises(GraphFormatError, match="insert_weights"):
            g.apply(MutationBatch(insert_src=[0], insert_dst=[1]))
        g2 = DynamicGraph(4)
        with pytest.raises(GraphFormatError, match="unweighted"):
            g2.apply(MutationBatch(insert_src=[0], insert_dst=[1],
                                   insert_weights=[1.0]))

    def test_weights_length_mismatch(self):
        with pytest.raises(GraphFormatError, match="insert_weights"):
            MutationBatch(insert_src=[0, 1], insert_dst=[1, 2],
                          insert_weights=[1.0])
