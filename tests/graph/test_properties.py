"""Property-based tests of the core graph structures (hypothesis)."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.systems.graphmat.kernels import _pattern_spmv
from tests.algorithms.oracles import multigraphs


def to_scipy(csr):
    """``csr`` as a ``scipy.sparse.csr_matrix``, weights defaulting to 1."""
    data = (csr.weights if csr.weights is not None
            else np.ones(csr.n_edges, dtype=np.float64))
    n = csr.n_vertices
    return sp.csr_matrix((data, csr.col_idx, csr.row_ptr), shape=(n, n))


@st.composite
def edge_lists(draw, max_n=40, max_m=120, weighted=None):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    if weighted is None:
        weighted = draw(st.booleans())
    weights = None
    if weighted:
        weights = np.array(draw(st.lists(
            st.floats(0.001, 100.0, allow_nan=False),
            min_size=m, max_size=m)))
    return EdgeList(np.array(src, dtype=np.int64),
                    np.array(dst, dtype=np.int64), n,
                    weights=weights, directed=draw(st.booleans()))


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_csr_preserves_edge_multiset(el):
    csr = CSRGraph.from_edge_list(el)
    src, dst = csr.source_ids(), csr.col_idx
    want = sorted(zip(el.src.tolist(), el.dst.tolist()))
    got = sorted(zip(src.tolist(), dst.tolist()))
    assert got == want


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_csr_row_ptr_invariants(el):
    csr = CSRGraph.from_edge_list(el)
    assert csr.row_ptr[0] == 0
    assert csr.row_ptr[-1] == csr.n_edges
    assert np.all(np.diff(csr.row_ptr) >= 0)
    assert csr.out_degrees().sum() == csr.n_edges
    # Rows are sorted.
    for v in range(csr.n_vertices):
        nbrs = csr.neighbors(v)
        assert np.all(np.diff(nbrs) >= 0)


@given(multigraphs(min_n=1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_dcsr_spmv_agrees_with_scipy(graph, weighted):
    """GraphMat's sweep over the DCSR row index (``pull_rows()``) of a
    multigraph with empty rows is the pattern's ``A @ x``: parallel
    arcs add, empty rows are zero, stored weights are not read."""
    n, src, dst = graph
    weights = np.arange(1.0, src.size + 1.0) if weighted else None
    csr = CSRGraph.from_arrays(src, dst, n, weights=weights)
    x = np.linspace(0.5, 2.0, n)
    pattern = CSRGraph(csr.row_ptr, csr.col_idx)
    want = np.asarray(to_scipy(pattern) @ x).ravel()
    assert np.allclose(_pattern_spmv(csr, x), want)


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_symmetrized_degree_identity(el):
    sym = el.symmetrized()
    csr = CSRGraph.from_edge_list(sym)
    assert np.array_equal(csr.out_degrees(),
                          np.bincount(csr.col_idx, minlength=csr.n_vertices))


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_transpose_preserves_multiset(el):
    csr = CSRGraph.from_edge_list(el)
    t = csr.transposed()
    s1, d1 = csr.source_ids(), csr.col_idx
    s2, d2 = t.source_ids(), t.col_idx
    assert sorted(zip(s1.tolist(), d1.tolist())) == \
        sorted(zip(d2.tolist(), s2.tolist()))


@given(edge_lists(), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_permutation_preserves_structure(el, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(el.n_vertices).astype(np.int64)
    p = EdgeList(perm[el.src], perm[el.dst], el.n_vertices,
                 weights=el.weights, directed=el.directed)
    assert p.n_edges == el.n_edges
    assert np.array_equal(
        np.sort(p.degrees()), np.sort(el.degrees()))
