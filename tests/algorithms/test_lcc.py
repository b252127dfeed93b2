"""Tests for the local clustering coefficient."""

import numpy as np
import pytest

from repro.algorithms.lcc import lcc_wedge_count, local_clustering
from repro.graph.csr import CSRGraph
from tests.algorithms.oracles import networkx_clustering


def _sym_csr(src, dst, n):
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    return CSRGraph.from_arrays(s, d, n)


def test_triangle_is_fully_clustered():
    csr = _sym_csr(np.array([0, 1, 2]), np.array([1, 2, 0]), 3)
    assert np.allclose(local_clustering(csr), 1.0)


def test_path_has_zero_clustering():
    csr = _sym_csr(np.array([0, 1]), np.array([1, 2]), 3)
    assert np.allclose(local_clustering(csr), 0.0)


def test_matches_networkx(kron10_csr):
    assert np.allclose(local_clustering(kron10_csr),
                       networkx_clustering(kron10_csr))


def test_batching_invariant(kron10_csr):
    a = local_clustering(kron10_csr, batch_rows=64)
    b = local_clustering(kron10_csr,
                         batch_rows=kron10_csr.n_vertices)
    assert np.allclose(a, b)


def test_self_loops_ignored():
    csr = _sym_csr(np.array([0, 1, 2, 0]), np.array([1, 2, 0, 0]), 3)
    assert np.allclose(local_clustering(csr), 1.0)


def test_degree_below_two_is_zero():
    csr = _sym_csr(np.array([0]), np.array([1]), 3)
    lcc = local_clustering(csr)
    assert lcc.tolist() == [0.0, 0.0, 0.0]


def test_wedge_count():
    # Triangle: each vertex has degree 2 -> d(d-1) = 2, total 6.
    csr = _sym_csr(np.array([0, 1, 2]), np.array([1, 2, 0]), 3)
    assert lcc_wedge_count(csr) == pytest.approx(6.0)


def test_dense_graph_has_more_wedges_than_sparse(dota_small,
                                                 patents_small):
    """The cost asymmetry behind Table I's LCC column."""
    d = CSRGraph.from_edge_list(dota_small, symmetrize=True)
    p = CSRGraph.from_edge_list(patents_small)
    per_vertex_d = lcc_wedge_count(d) / d.n_vertices
    per_vertex_p = lcc_wedge_count(p) / p.n_vertices
    assert per_vertex_d > 20 * per_vertex_p
