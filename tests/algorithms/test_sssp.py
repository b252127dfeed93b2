"""Reference SSSP vs. networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.sssp import sssp_dijkstra
from repro.errors import ValidationError
from repro.graph.csr import CSRGraph


def test_tiny_distances(tiny_csr):
    d = sssp_dijkstra(tiny_csr, 0)
    # 0-1 (1), 0-2 (4) but 0-1-2 = 2, 2-3 (1), 3-4 (2); 5 unreachable.
    assert d.tolist() == [0.0, 1.0, 2.0, 3.0, 5.0, np.inf]


def test_matches_networkx(kron10_csr):
    root = 3
    d = sssp_dijkstra(kron10_csr, root)
    g = nx.DiGraph()
    g.add_nodes_from(range(kron10_csr.n_vertices))
    src = kron10_csr.source_ids()
    for s, t, w in zip(src.tolist(), kron10_csr.col_idx.tolist(),
                       kron10_csr.weights.tolist()):
        # parallel edges: keep the lightest (matches our dedup-min).
        if g.has_edge(s, t):
            g[s][t]["weight"] = min(g[s][t]["weight"], w)
        else:
            g.add_edge(s, t, weight=w)
    want = nx.single_source_dijkstra_path_length(g, root)
    for v in range(kron10_csr.n_vertices):
        if v in want:
            assert d[v] == pytest.approx(want[v], abs=1e-12)
        else:
            assert np.isinf(d[v])


def test_requires_weights(tiny_edges):
    csr = CSRGraph.from_arrays(tiny_edges.src, tiny_edges.dst, 6)
    with pytest.raises(ValidationError):
        sssp_dijkstra(csr, 0)


def test_rejects_negative_weights():
    csr = CSRGraph.from_arrays(np.array([0]), np.array([1]), 2,
                               weights=np.array([-1.0]))
    with pytest.raises(ValidationError):
        sssp_dijkstra(csr, 0)


def test_rejects_nan_weights():
    # ``weights.min() < 0`` is False for NaN, so this used to run.
    csr = CSRGraph.from_arrays(np.array([0, 1]), np.array([1, 2]), 3,
                               weights=np.array([1.0, np.nan]))
    with pytest.raises(ValidationError, match="non-negative"):
        sssp_dijkstra(csr, 0)


def test_inf_weights_are_legal():
    csr = CSRGraph.from_arrays(np.array([0, 0]), np.array([1, 2]), 3,
                               weights=np.array([np.inf, 1.0]))
    assert sssp_dijkstra(csr, 0).tolist() == [0.0, np.inf, 1.0]


def test_parallel_edges_use_min_weight():
    csr = CSRGraph.from_arrays(np.array([0, 0]), np.array([1, 1]), 2,
                               weights=np.array([5.0, 2.0]))
    d = sssp_dijkstra(csr, 0)
    assert d[1] == 2.0


@given(seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    n = 30
    m = 120
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    w = rng.uniform(0.01, 1.0, m)
    csr = CSRGraph.from_arrays(src, dst, n, weights=w)
    d = sssp_dijkstra(csr, 0)
    # For every arc (u, v, w): d[v] <= d[u] + w.
    s = csr.source_ids()
    finite = np.isfinite(d[s])
    assert np.all(d[csr.col_idx[finite]]
                  <= d[s[finite]] + csr.weights[finite] + 1e-9)
