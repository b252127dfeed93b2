"""Unit tests for EdgeList."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList


def _el(src, dst, n, **kw):
    return EdgeList(np.asarray(src), np.asarray(dst), n, **kw)


class TestConstruction:
    def test_basic(self):
        el = _el([0, 1], [1, 2], 3)
        assert el.n_edges == 2
        assert el.n_vertices == 3
        assert not el.weighted

    def test_empty(self):
        el = _el([], [], 0)
        assert el.n_edges == 0
        assert el.nbytes() == 0

    def test_length_mismatch(self):
        with pytest.raises(GraphFormatError):
            _el([0, 1], [1], 3)

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphFormatError):
            _el([0], [3], 3)

    def test_negative_vertex(self):
        with pytest.raises(GraphFormatError):
            _el([-1], [0], 3)

    def test_weights_length_mismatch(self):
        with pytest.raises(GraphFormatError):
            _el([0], [1], 2, weights=np.array([1.0, 2.0]))

    def test_arrays_coerced_to_int64(self):
        el = _el(np.array([0], dtype=np.int32),
                 np.array([1], dtype=np.int32), 2)
        assert el.src.dtype == np.int64
        assert el.dst.dtype == np.int64


class TestDegrees:
    def test_out_degrees(self):
        el = _el([0, 0, 1], [1, 2, 2], 3)
        assert el.out_degrees().tolist() == [2, 1, 0]

    def test_undirected_degrees(self):
        el = _el([0, 0], [1, 2], 3)
        assert el.degrees().tolist() == [2, 1, 1]


class TestTransformations:
    def test_symmetrized_doubles_edges(self):
        el = _el([0, 1], [1, 2], 3)
        sym = el.symmetrized()
        assert sym.n_edges == 4
        assert sym.directed

    def test_symmetrized_keeps_self_loop_single(self):
        el = _el([0, 1], [0, 2], 3)
        sym = el.symmetrized()
        assert sym.n_edges == 3  # loop not duplicated

    def test_symmetrized_preserves_weights(self):
        el = _el([0], [1], 2, weights=np.array([5.0]))
        sym = el.symmetrized()
        assert sym.weights.tolist() == [5.0, 5.0]

    def test_deduplicated(self):
        el = _el([0, 0, 1], [1, 1, 2], 3)
        assert el.deduplicated().n_edges == 2

    def test_deduplicated_keeps_first_weight(self):
        el = _el([0, 0], [1, 1], 2, weights=np.array([3.0, 7.0]))
        de = el.deduplicated()
        assert de.weights.tolist() == [3.0]

    def test_random_weights_deterministic(self):
        el = _el([0, 1], [1, 2], 3)
        a = el.with_random_weights(seed=1)
        b = el.with_random_weights(seed=1)
        assert np.array_equal(a.weights, b.weights)
        assert np.all((a.weights >= 0) & (a.weights < 1))

    def test_copy_is_independent(self):
        el = _el([0], [1], 2, weights=np.array([1.0]))
        cp = el.copy()
        cp.src[0] = 1
        assert el.src[0] == 0
