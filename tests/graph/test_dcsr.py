"""Unit tests for GraphMat's doubly-compressed sparse row (DCSR) model.

GraphMat holds a :class:`~repro.graph.csr.CSRGraph`; DCSR's index of
non-empty rows is its :meth:`~repro.graph.csr.CSRGraph.pull_rows`, the
footprint it reports is the DCSR one, and PageRank's pattern SpMV sums
over that index.
"""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.systems.graphmat.kernels import _pattern_spmv
from repro.systems.graphmat.system import _dcsr_nbytes
from tests.graph.test_properties import to_scipy


@pytest.fixture
def sparse_csr():
    """Rows 0 and 3 non-empty out of 5."""
    return CSRGraph.from_arrays(np.array([0, 0, 3]),
                                np.array([1, 4, 2]), 5,
                                weights=np.array([1.0, 2.0, 3.0]))


def _row_ptr_from_index(csr):
    """The ``n + 1`` row pointer rebuilt from the DCSR row index."""
    rows, starts = csr.pull_rows()
    ends = np.append(starts[1:], csr.n_edges)
    row_ptr = np.zeros(csr.n_vertices + 1, dtype=np.int64)
    row_ptr[rows + 1] = ends - starts
    return np.cumsum(row_ptr)


class TestCompression:
    def test_empty_rows_removed(self, sparse_csr):
        rows, starts = sparse_csr.pull_rows()
        assert rows.tolist() == [0, 3]
        assert starts.tolist() == [0, 2]

    def test_roundtrip(self, sparse_csr):
        assert np.array_equal(_row_ptr_from_index(sparse_csr),
                              sparse_csr.row_ptr)

    def test_kron_roundtrip(self, kron10_csr):
        assert np.array_equal(_row_ptr_from_index(kron10_csr),
                              kron10_csr.row_ptr)

    def test_unsorted_row_ids_rejected(self):
        """A row index that runs backwards is no CSR."""
        with pytest.raises(GraphFormatError):
            CSRGraph(row_ptr=np.array([0, 2, 1, 2]),
                     col_idx=np.array([2, 2]))

    def test_saves_memory_on_hypersparse(self, sparse_csr):
        # 2 of 5 rows stored: 16 B each plus the closing offset, where
        # the CSR holds 6 row pointers.
        assert _dcsr_nbytes(sparse_csr) == sparse_csr.nbytes() - 48 + 40
        assert _dcsr_nbytes(sparse_csr) < sparse_csr.nbytes()


class TestSemiringSpMV:
    def test_plus_times_matches_dense(self, kron10_csr):
        rng = np.random.default_rng(1)
        x = rng.random(kron10_csr.n_vertices)
        pattern = CSRGraph(kron10_csr.row_ptr, kron10_csr.col_idx)
        want = np.asarray(to_scipy(pattern) @ x).ravel()
        assert np.allclose(_pattern_spmv(kron10_csr, x), want)

    def test_plus_times_pattern_only_ignores_values(self, sparse_csr):
        got = _pattern_spmv(sparse_csr, np.ones(5))
        assert got[0] == 2.0  # two entries, values ignored
        assert got[3] == 1.0

    def test_empty_matrix_spmv(self):
        empty = CSRGraph(row_ptr=np.zeros(4, dtype=np.int64),
                         col_idx=np.empty(0, dtype=np.int64))
        assert not _pattern_spmv(empty, np.ones(3)).any()


class TestPlusTimesDtype:
    """The pattern SpMV answers in ``x``'s dtype."""

    def _weighted(self):
        return CSRGraph(row_ptr=np.array([0, 2, 2, 3, 3]),
                        col_idx=np.array([1, 3, 0]),
                        weights=np.array([0.5, 0.25, 1.5]))

    def test_integer_x_pattern_only_keeps_int(self):
        y = _pattern_spmv(self._weighted(), np.ones(4, dtype=np.int64))
        assert y.dtype == np.int64
        assert y.tolist() == [2, 0, 1, 0]

    def test_float_x_dtype_unchanged(self):
        y32 = _pattern_spmv(self._weighted(), np.ones(4, dtype=np.float32))
        assert y32.dtype == np.float32
