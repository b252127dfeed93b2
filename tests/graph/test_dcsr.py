"""Unit tests for the doubly-compressed sparse row matrix."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.dcsr import DCSRMatrix
from tests.graph.test_properties import to_scipy


@pytest.fixture
def sparse_csr():
    """Rows 0 and 3 non-empty out of 5."""
    return CSRGraph.from_arrays(np.array([0, 0, 3]),
                                np.array([1, 4, 2]), 5,
                                weights=np.array([1.0, 2.0, 3.0]))


class TestCompression:
    def test_empty_rows_removed(self, sparse_csr):
        d = DCSRMatrix.from_csr(sparse_csr)
        assert d.row_ids.tolist() == [0, 3]
        assert d.n_nonempty_rows == 2
        assert d.nnz == 3

    def test_roundtrip(self, sparse_csr):
        back = DCSRMatrix.from_csr(sparse_csr).csr_view()
        assert np.array_equal(back.row_ptr, sparse_csr.row_ptr)
        assert np.array_equal(back.col_idx, sparse_csr.col_idx)
        assert np.array_equal(back.weights, sparse_csr.weights)

    def test_kron_roundtrip(self, kron10_csr):
        back = DCSRMatrix.from_csr(kron10_csr).csr_view()
        assert np.array_equal(back.row_ptr, kron10_csr.row_ptr)
        assert np.array_equal(back.col_idx, kron10_csr.col_idx)

    def test_stored_empty_row_rejected(self):
        with pytest.raises(GraphFormatError):
            DCSRMatrix(n=3, row_ids=np.array([0, 1]),
                       row_ptr=np.array([0, 1, 1]),
                       col_idx=np.array([2]))

    def test_unsorted_row_ids_rejected(self):
        with pytest.raises(GraphFormatError):
            DCSRMatrix(n=3, row_ids=np.array([1, 0]),
                       row_ptr=np.array([0, 1, 2]),
                       col_idx=np.array([2, 2]))

    def test_saves_memory_on_hypersparse(self, sparse_csr):
        d = DCSRMatrix.from_csr(sparse_csr)
        assert d.nbytes() < sparse_csr.nbytes()


class TestSemiringSpMV:
    def test_plus_times_matches_dense(self, kron10_csr):
        d = DCSRMatrix.from_csr(kron10_csr)
        rng = np.random.default_rng(1)
        x = rng.random(kron10_csr.n_vertices)
        got = d.spmv_plus_times(x)
        want = np.asarray(to_scipy(kron10_csr) @ x).ravel()
        assert np.allclose(got, want)

    def test_plus_times_pattern_only_ignores_values(self, sparse_csr):
        d = DCSRMatrix.from_csr(sparse_csr)
        x = np.ones(5)
        got = d.spmv_plus_times(x, pattern_only=True)
        assert got[0] == 2.0  # two entries, values ignored
        assert got[3] == 1.0

    def test_empty_matrix_spmv(self):
        d = DCSRMatrix(n=3, row_ids=np.array([], dtype=np.int64),
                       row_ptr=np.array([0]),
                       col_idx=np.array([], dtype=np.int64))
        assert not d.spmv_plus_times(np.ones(3)).any()


class TestPlusTimesDtype:
    """Regression: integer-dtype x against float values must promote.

    ``values.astype(x.dtype)`` used to truncate every stored weight
    toward zero, so an all-ones int vector against 0.5-weighted rows
    summed to 0 instead of the weighted row sums.
    """

    def _weighted(self):
        return DCSRMatrix(
            n=4,
            row_ids=np.array([0, 2]),
            row_ptr=np.array([0, 2, 3]),
            col_idx=np.array([1, 3, 0]),
            values=np.array([0.5, 0.25, 1.5]))

    def test_integer_x_promotes_to_float64(self):
        d = self._weighted()
        y = d.spmv_plus_times(np.ones(4, dtype=np.int64))
        assert y.dtype == np.float64
        assert y.tolist() == [0.75, 0.0, 1.5, 0.0]

    def test_integer_x_pattern_only_keeps_int(self):
        d = self._weighted()
        y = d.spmv_plus_times(np.ones(4, dtype=np.int64),
                              pattern_only=True)
        assert y.dtype == np.int64
        assert y.tolist() == [2, 0, 1, 0]

    def test_float_x_dtype_unchanged(self):
        d = self._weighted()
        y32 = d.spmv_plus_times(np.ones(4, dtype=np.float32))
        assert y32.dtype == np.float32

    def test_integer_x_empty_matrix_promotes(self):
        d = DCSRMatrix(n=3, row_ids=np.empty(0, dtype=np.int64),
                       row_ptr=np.zeros(1, dtype=np.int64),
                       col_idx=np.empty(0, dtype=np.int64),
                       values=np.empty(0))
        y = d.spmv_plus_times(np.ones(3, dtype=np.int64))
        assert y.dtype == np.float64 and y.tolist() == [0.0, 0.0, 0.0]
