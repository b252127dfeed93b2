"""Tests for the Sec. V extension kernels: BC and triangle counting."""

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.bc import brandes_single_source
from repro.algorithms.tc import triangle_count
from repro.graph.csr import CSRGraph


def _simple_sym(src, dst, n):
    s = np.concatenate([src, dst])
    d = np.concatenate([dst, src])
    key = s * n + d
    _, idx = np.unique(key, return_index=True)
    return CSRGraph.from_arrays(s[idx], d[idx], n)


@pytest.fixture(scope="module")
def random_graph():
    rng = np.random.default_rng(3)
    n, m = 50, 180
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    return _simple_sym(src[keep], dst[keep], n)


def betweenness_centrality(graph, sources=None, normalize=True):
    """BC summed over Brandes sweeps from ``sources`` (all vertices when
    None), endpoints excluded; ``normalize`` rescales by n over the
    number of sources so a sample estimates the exact values."""
    n = graph.n_vertices
    if sources is None:
        sources = np.arange(n, dtype=np.int64)
    scores = np.zeros(n, dtype=np.float64)
    for s in np.asarray(sources, dtype=np.int64):
        delta, _, _ = brandes_single_source(graph, int(s))
        delta[s] = 0.0
        scores += delta
    if normalize and len(sources):
        scores *= n / float(len(sources))
    return scores


def _nx_graph(csr):
    g = nx.Graph()
    g.add_nodes_from(range(csr.n_vertices))
    src = csr.source_ids()
    g.add_edges_from(zip(src.tolist(), csr.col_idx.tolist()))
    return g


class TestBetweenness:
    def test_matches_networkx_exact(self, random_graph):
        got = betweenness_centrality(random_graph, normalize=False)
        want = nx.betweenness_centrality(_nx_graph(random_graph),
                                         normalized=False)
        ref = np.array([want[i] for i in range(random_graph.n_vertices)])
        # Our directed sweep counts each undirected path twice.
        assert np.allclose(got / 2, ref, atol=1e-9)

    def test_path_graph_center_highest(self):
        n = 7
        src = np.arange(n - 1)
        csr = _simple_sym(src, src + 1, n)
        bc = betweenness_centrality(csr, normalize=False)
        assert np.argmax(bc) == n // 2
        assert bc[0] == 0.0

    def test_star_center(self):
        n = 6
        src = np.zeros(n - 1, dtype=np.int64)
        dst = np.arange(1, n)
        csr = _simple_sym(src, dst, n)
        bc = betweenness_centrality(csr, normalize=False)
        assert bc[0] > 0
        assert np.allclose(bc[1:], 0.0)

    def test_sampled_estimates_exact(self, random_graph):
        exact = betweenness_centrality(random_graph, normalize=False)
        rng = np.random.default_rng(0)
        sources = rng.choice(random_graph.n_vertices, 25, replace=False)
        approx = betweenness_centrality(random_graph, sources=sources,
                                        normalize=True)
        # Correlated estimate (rank correlation on the top vertices).
        top_exact = set(np.argsort(exact)[-5:])
        top_approx = set(np.argsort(approx)[-5:])
        assert len(top_exact & top_approx) >= 3


class TestTriangleCount:
    def test_triangle(self):
        csr = _simple_sym(np.array([0, 1, 2]), np.array([1, 2, 0]), 3)
        assert triangle_count(csr) == 1

    def test_clique(self):
        n = 6
        src, dst = [], []
        for i in range(n):
            for j in range(i + 1, n):
                src.append(i)
                dst.append(j)
        csr = _simple_sym(np.array(src), np.array(dst), n)
        assert triangle_count(csr) == n * (n - 1) * (n - 2) // 6

    def test_triangle_free(self):
        src = np.array([0, 1, 2, 3])
        dst = np.array([1, 2, 3, 4])
        csr = _simple_sym(src, dst, 5)
        assert triangle_count(csr) == 0

    def test_matches_networkx(self, random_graph):
        got = triangle_count(random_graph)
        want = sum(nx.triangles(_nx_graph(random_graph)).values()) // 3
        assert got == want

    def test_kron_matches_networkx(self, kron10_csr):
        got = triangle_count(kron10_csr)
        g = nx.Graph()
        g.add_nodes_from(range(kron10_csr.n_vertices))
        src = kron10_csr.source_ids()
        g.add_edges_from(zip(src.tolist(), kron10_csr.col_idx.tolist()))
        g.remove_edges_from(nx.selfloop_edges(g))
        want = sum(nx.triangles(g).values()) // 3
        assert got == want


class TestGapExtensionKernels:
    def test_gap_provides_all_nine(self):
        from repro.systems import create_system

        assert create_system("gap").provides == {
            "bfs", "sssp", "pagerank", "wcc", "bc", "tc",
            "kcore", "mis", "cc"}

    def test_bc_through_system(self, kron10_dataset):
        from repro.systems import create_system

        s = create_system("gap")
        loaded = s.load(kron10_dataset)
        res = s.run(loaded, "bc", n_sources=4)
        assert res.output["bc"].shape == (loaded.n_vertices,)
        assert res.counters["sources"] == 4
        assert res.time_s > 0

    def test_tc_through_system(self, kron10_dataset, kron10_csr):
        from repro.algorithms.tc import triangle_count
        from repro.systems import create_system

        s = create_system("gap")
        loaded = s.load(kron10_dataset)
        res = s.run(loaded, "tc")
        assert int(res.output["triangles"][0]) == triangle_count(
            kron10_csr)

    def test_other_systems_refuse(self, kron10_dataset):
        from repro.errors import SystemCapabilityError
        from repro.systems import create_system

        s = create_system("graphmat")
        loaded = s.load(kron10_dataset)
        with pytest.raises(SystemCapabilityError):
            s.run(loaded, "tc")
