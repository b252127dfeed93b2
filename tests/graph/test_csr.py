"""Unit tests for CSRGraph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import csr as csr_module
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList


class TestBuild:
    def test_from_arrays_sorted_rows(self):
        csr = CSRGraph.from_arrays(np.array([1, 0, 1]),
                                   np.array([2, 1, 0]), 3)
        assert csr.row_ptr.tolist() == [0, 1, 3, 3]
        assert csr.neighbors(1).tolist() == [0, 2]

    def test_from_edge_list_symmetrize(self, tiny_edges):
        csr = CSRGraph.from_edge_list(tiny_edges, symmetrize=True)
        assert csr.n_edges == 2 * tiny_edges.n_edges
        # Undirected: in-degree == out-degree.
        assert np.array_equal(
            np.bincount(csr.col_idx, minlength=csr.n_vertices),
            csr.out_degrees())

    def test_empty_graph(self):
        csr = CSRGraph.from_arrays(np.array([], dtype=np.int64),
                                   np.array([], dtype=np.int64), 4)
        assert csr.n_vertices == 4
        assert csr.n_edges == 0

    def test_duplicate_edges_kept(self):
        csr = CSRGraph.from_arrays(np.array([0, 0]), np.array([1, 1]), 2)
        assert csr.n_edges == 2

    def test_invalid_row_ptr_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(row_ptr=np.array([0, 2, 1]),
                     col_idx=np.array([0, 1]))

    def test_row_ptr_must_end_at_nnz(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(row_ptr=np.array([0, 1]), col_idx=np.array([0, 1]))

    def test_weights_alignment_checked(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(row_ptr=np.array([0, 1]), col_idx=np.array([0]),
                     weights=np.array([1.0, 2.0]))


class TestAccessors:
    def test_neighbors_is_view(self, tiny_csr):
        nbrs = tiny_csr.neighbors(0)
        assert nbrs.base is tiny_csr.col_idx

    def test_degrees_sum_to_nnz(self, kron10_csr):
        assert kron10_csr.out_degrees().sum() == kron10_csr.n_edges
        assert np.bincount(kron10_csr.col_idx).sum() == kron10_csr.n_edges



class TestDerived:
    def test_transpose_involution(self, kron10_csr):
        tt = kron10_csr.transposed().transposed()
        assert np.array_equal(tt.row_ptr, kron10_csr.row_ptr)
        assert np.array_equal(tt.col_idx, kron10_csr.col_idx)

    def test_transpose_swaps_degrees(self, patents_small):
        csr = CSRGraph.from_edge_list(patents_small)
        t = csr.transposed()
        assert np.array_equal(
            t.out_degrees(),
            np.bincount(csr.col_idx, minlength=csr.n_vertices))

    def test_source_ids_matches_row_ptr(self, kron10_csr):
        src = kron10_csr.source_ids()
        assert src.size == kron10_csr.n_edges
        deg = np.bincount(src, minlength=kron10_csr.n_vertices)
        assert np.array_equal(deg, kron10_csr.out_degrees())

    def test_source_ids_roundtrip(self, kron10):
        csr = CSRGraph.from_edge_list(kron10)
        src, dst = csr.source_ids(), csr.col_idx
        back = CSRGraph.from_arrays(src, dst, csr.n_vertices)
        assert np.array_equal(back.col_idx, csr.col_idx)
        assert np.array_equal(back.row_ptr, csr.row_ptr)


class TestEndpointValidation:
    """Regression: out-of-range endpoints must raise GraphFormatError.

    An id ``>= n`` used to surface as a raw NumPy shape error out of
    the bincount/cumsum pair; a *negative* id silently corrupted the
    counting sort into an inconsistent row_ptr.
    """

    def test_src_at_or_above_n_rejected_with_index(self):
        with pytest.raises(GraphFormatError,
                           match=r"src\[1\] = 50.*\[0, 5\)"):
            CSRGraph.from_arrays(np.array([0, 50]), np.array([1, 2]), 5)

    def test_negative_dst_rejected_with_index(self):
        with pytest.raises(GraphFormatError,
                           match=r"dst\[0\] = -2"):
            CSRGraph.from_arrays(np.array([0]), np.array([-2]), 5)

    def test_negative_src_no_longer_corrupts_silently(self):
        with pytest.raises(GraphFormatError, match=r"src\[2\] = -1"):
            CSRGraph.from_arrays(np.array([0, 1, -1]),
                                 np.array([1, 2, 0]), 4)

    def test_dst_equal_n_rejected(self):
        with pytest.raises(GraphFormatError, match=r"dst\[0\] = 3"):
            CSRGraph.from_arrays(np.array([0]), np.array([3]), 3)

    def test_boundary_ids_accepted(self):
        csr = CSRGraph.from_arrays(np.array([0, 3]), np.array([3, 0]), 4)
        assert csr.n_edges == 2


@st.composite
def _multigraphs(draw):
    """CSR with parallel arcs (of differing weights when weighted),
    self-loops, empty rows, isolated vertices and ``m == 0``: ids are
    drawn from a prefix of ``[0, n)`` so collisions are the norm."""
    n = draw(st.integers(1, 12))
    hi = draw(st.integers(0, n - 1))
    ids = st.lists(st.integers(0, hi), min_size=0, max_size=40)
    src = draw(ids)
    dst = draw(st.lists(st.integers(0, hi), min_size=len(src),
                        max_size=len(src)))
    weights = None
    if draw(st.booleans()):
        # Distinct per arc, so a parallel arc landing out of order shows.
        weights = np.arange(len(src), dtype=np.float64) + 0.5
    return CSRGraph.from_arrays(np.array(src, dtype=np.int64),
                                np.array(dst, dtype=np.int64), n,
                                weights=weights)


def _old_transposed(g):
    """What ``transposed()`` computed before it became a counting pass."""
    return CSRGraph.from_arrays(g.col_idx, g.source_ids(), g.n_vertices,
                                weights=g.weights)


def _assert_same_bytes(got, want):
    for name in ("row_ptr", "col_idx", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name


class TestTransposeIsTheOldSort:
    """``transposed()`` is a linear counting pass; its contract is the
    exact bytes of the two-key sort it replaced."""

    @given(_multigraphs())
    @settings(max_examples=200, deadline=None)
    def test_byte_identical_to_from_arrays(self, g):
        _assert_same_bytes(g.transposed(), _old_transposed(g))

    def test_kron10_byte_identical(self, kron10_csr):
        # The fixture is symmetric, so it is its own transpose: the
        # counting pass runs on a copy that does not say so.
        g = CSRGraph(kron10_csr.row_ptr, kron10_csr.col_idx,
                     kron10_csr.weights)
        _assert_same_bytes(g.transposed(), _old_transposed(g))

    @pytest.mark.parametrize("bad", (3, -1))
    def test_bad_col_idx_still_raises(self, bad):
        """A hand-built CSR skips ``from_arrays``' endpoint check; the
        transpose must catch it before the C pass indexes with it."""
        g = CSRGraph(row_ptr=np.array([0, 1, 2, 2]),
                     col_idx=np.array([1, bad]))
        with pytest.raises(GraphFormatError,
                           match=rf"col_idx\[1\] = {bad}.*\[0, 3\)"):
            g.transposed()


@st.composite
def _arc_lists(draw):
    """``(src, dst, n)`` with parallel arcs, self-loops, ``m == 0`` and
    ``n == 1`` all likely."""
    n = draw(st.integers(1, 12))
    ids = st.integers(0, draw(st.integers(0, n - 1)))
    m = draw(st.integers(0, 40))
    src = draw(st.lists(ids, min_size=m, max_size=m))
    dst = draw(st.lists(ids, min_size=m, max_size=m))
    return (np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64), n)


class TestArcOrder:
    """One packed value sort orders every arc list; its contract is the
    permutation of the stable two-key ``lexsort`` it replaced."""

    @given(_arc_lists())
    @settings(max_examples=200, deadline=None)
    def test_packed_sort_is_lexsort(self, arcs):
        src, dst, n = arcs
        want = np.lexsort((dst, src))
        got = csr_module._arc_order(src, dst, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @given(_arc_lists())
    @settings(max_examples=100, deadline=None)
    def test_both_sides_of_the_guard_build_the_same_csr(self, arcs):
        """Limit 0 sends every arc list down the guarded fallback."""
        src, dst, n = arcs
        weights = np.arange(src.size, dtype=np.float64) + 0.5
        packed = CSRGraph.from_arrays(src, dst, n, weights=weights)
        saved = csr_module._PACK_LIMIT
        csr_module._PACK_LIMIT = 0
        try:
            _assert_same_bytes(
                CSRGraph.from_arrays(src, dst, n, weights=weights), packed)
        finally:
            csr_module._PACK_LIMIT = saved

    def test_guard_trips_before_int64_wraps(self):
        """``n * n * m`` is Python-int arithmetic: an ``np.int64`` n of
        2**31, whose square times 3 wraps int64, still trips the guard
        (packed keys built at that width would sort as garbage)."""
        src = np.array([3, 0, 3], dtype=np.int64)
        dst = np.array([1, 2, 1], dtype=np.int64)
        assert csr_module._arc_order(
            src, dst, np.int64(2 ** 31)).tolist() == [1, 0, 2]

    def test_parallel_arcs_keep_input_order_of_weights(self):
        csr = CSRGraph.from_arrays(
            np.array([1, 0, 1, 1, 0]), np.array([2, 1, 2, 0, 1]), 3,
            weights=np.array([5.0, 4.0, 3.0, 2.0, 1.0]))
        assert csr.col_idx.tolist() == [1, 1, 0, 2, 2]
        assert csr.weights.tolist() == [4.0, 1.0, 2.0, 5.0, 3.0]

    def test_scale_10_graph_matches_lexsort(self, kron10):
        el = kron10.symmetrized()
        assert np.array_equal(
            csr_module._arc_order(el.src, el.dst, el.n_vertices),
            np.lexsort((el.dst, el.src)))
