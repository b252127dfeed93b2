"""Tests for the local clustering coefficient."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.algorithms.lcc as lcc
from repro.algorithms.lcc import clustering_blocks
from repro.datasets.realworld import cit_patents, dota_league
from repro.graph.csr import CSRGraph
from repro.graph.simple import simple_patterns
from tests.algorithms.oracles import multigraphs, networkx_clustering


def _sym_csr(src, dst, n):
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    return CSRGraph.from_arrays(s, d, n)


def local_clustering(csr, batch_rows=None):
    """LCC per vertex of ``csr`` (0.0 below two neighbours)."""
    return clustering_blocks(csr.source_ids(), csr.col_idx,
                             csr.n_vertices, batch_rows)[0]


def _wedge_total(csr):
    return clustering_blocks(csr.source_ids(), csr.col_idx,
                             csr.n_vertices)[1].sum()


_BUDGET = lcc.DENSE_BUDGET_BYTES
_DENSE_ARC_COUNTS = lcc._dense_arc_counts


def _count_dense_blocks(monkeypatch):
    """The row count of every block that takes the dense path from now
    on, in block order."""
    seen = []

    def spy(rows, a_dense):
        seen.append(rows.shape[0])
        return _DENSE_ARC_COUNTS(rows, a_dense)

    monkeypatch.setattr(lcc, "_dense_arc_counts", spy)
    return seen


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
    assert np.array_equal(a, b)


def test_self_loops_ignored():
    csr = _sym_csr(np.array([0, 1, 2, 0]), np.array([1, 2, 0, 0]), 3)
    assert np.allclose(local_clustering(csr), 1.0)


def test_degree_below_two_is_zero():
    csr = _sym_csr(np.array([0]), np.array([1]), 3)
    lcc_values = local_clustering(csr)
    assert lcc_values.tolist() == [0.0, 0.0, 0.0]


def test_wedge_count():
    # Triangle: each vertex has degree 2 -> d(d-1) = 2, total 6.
    csr = _sym_csr(np.array([0, 1, 2]), np.array([1, 2, 0]), 3)
    assert _wedge_total(csr) == pytest.approx(6.0)


def test_dense_graph_has_more_wedges_than_sparse(dota_small,
                                                 patents_small):
    """The cost asymmetry behind Table I's LCC column."""
    d = CSRGraph.from_edge_list(dota_small, symmetrize=True)
    p = CSRGraph.from_edge_list(patents_small)
    per_vertex_d = _wedge_total(d) / d.n_vertices
    per_vertex_p = _wedge_total(p) / p.n_vertices
    assert per_vertex_d > 20 * per_vertex_p


@pytest.mark.parametrize("mode", ["dense", "sparse", "mixed"])
@given(graph=multigraphs(), data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_dense_and_sparse_blocks_are_byte_equal(mode, graph, data,
                                                monkeypatch):
    """Whichever blocks run dense, ``lcc``, ``wedges`` and ``blocks``
    are the all-sparse bytes at every block height: on multigraphs with
    self-loops, duplicate and reciprocal arcs and isolated vertices."""
    n, src, dst = graph
    # Reverse a prefix of the arcs so reciprocal pairs always occur.
    k = data.draw(st.integers(0, src.size), label="reciprocal")
    src, dst = (np.concatenate([src, dst[:k]]),
                np.concatenate([dst, src[:k]]))
    heights = sorted({1, max(n, 1),
                      data.draw(st.integers(1, max(n, 1)), label="rows")})

    monkeypatch.setattr(lcc, "DENSE_BUDGET_BYTES", 0)
    want = {b: clustering_blocks(src, dst, n, b) for b in heights}

    share = {"dense": 0.0, "sparse": 2.0,
             "mixed": data.draw(st.floats(0.0, 1.0), label="share")}[mode]
    monkeypatch.setattr(lcc, "DENSE_BUDGET_BYTES", _BUDGET)
    monkeypatch.setattr(lcc, "DENSE_SHARE", share)
    und = simple_patterns(src, dst, n)[1]
    for b in heights:
        seen = _count_dense_blocks(monkeypatch)
        got_lcc, got_wedges, got_blocks = clustering_blocks(src, dst, n, b)
        want_lcc, want_wedges, want_blocks = want[b]
        assert got_lcc.tobytes() == want_lcc.tobytes()
        assert got_wedges.tobytes() == want_wedges.tobytes()
        assert got_blocks == want_blocks
        assert got_lcc.tobytes() == want[max(n, 1)][0].tobytes()
        dense = [hi - lo for lo, hi in got_blocks
                 if und[lo:hi].nnz >= share * (hi - lo) * n]
        assert seen == dense
        if mode == "dense":
            assert len(seen) == len(got_blocks)


@pytest.fixture(scope="module")
def dota_standin():
    """The dota-league stand-in ``epg reproduce`` runs (n = 964)."""
    return dota_league()


@pytest.fixture(scope="module")
def patents_standin():
    """The cit-Patents stand-in ``epg reproduce`` runs (n = 14 745)."""
    return cit_patents()


@pytest.mark.parametrize("dataset, dense", [
    ("dota_standin", True), ("kron10", False), ("patents_standin", False)])
def test_dense_path_selection(dataset, dense, request, monkeypatch):
    """The three graphs ``epg reproduce`` runs LCC on fall where the
    constants were measured: dota-league's one block is dense, kron10's
    and cit-Patents' are sparse."""
    edges = request.getfixturevalue(dataset)
    seen = _count_dense_blocks(monkeypatch)
    clustering_blocks(edges.src, edges.dst, edges.n_vertices)
    assert bool(seen) is dense


def test_budget_counts_three_dense_arrays(dota_standin, monkeypatch):
    """A block runs dense only if ``(2 rows + n) x n`` float32 fit."""
    n = dota_standin.n_vertices
    need = (2 * n + n) * n * 4
    for budget, dense in ((need - 1, False), (need, True)):
        monkeypatch.setattr(lcc, "DENSE_BUDGET_BYTES", budget)
        seen = _count_dense_blocks(monkeypatch)
        clustering_blocks(dota_standin.src, dota_standin.dst, n)
        assert bool(seen) is dense
