"""Property-based cross-system agreement on random graphs.

For arbitrary small random graphs driven through the *full* pipeline
surface (homogenize -> native file -> load -> kernel), all systems must
agree with the oracle on BFS levels, SSSP distances, and WCC labels.
This catches format/symmetrization mismatches that fixed fixtures
might miss.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import bfs_parents, sssp_dijkstra
from repro.algorithms import weakly_connected_components
from repro.datasets.homogenize import homogenize, select_roots
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.validation import validate_sssp_distances
from repro.systems import create_system


@st.composite
def random_graphs(draw):
    n = draw(st.integers(8, 48))
    m = draw(st.integers(n, 5 * n))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    directed = draw(st.booleans())
    return EdgeList(src, dst, n,
                    weights=rng.uniform(0.05, 2.0, m),
                    directed=directed, name="hypo")


_SETTINGS = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture,
                           HealthCheck.too_slow])


@given(edges=random_graphs())
@_SETTINGS
def test_bfs_agreement_property(tmp_path_factory, edges):
    try:
        dataset = homogenize(edges,
                             tmp_path_factory.mktemp("hypo"), n_roots=2)
    except Exception:
        pytest.skip("no eligible roots in this draw")
    csr = CSRGraph.from_edge_list(edges, symmetrize=not edges.directed)
    root = int(dataset.roots[0])
    ref = bfs_parents(csr, root)[1]
    for name in ("gap", "graphbig", "graphmat"):
        system = create_system(name)
        loaded = system.load(dataset)
        got = system.run(loaded, "bfs", root=root).output["level"]
        assert np.array_equal(got, ref), name


@given(edges=random_graphs())
@_SETTINGS
def test_sssp_agreement_property(tmp_path_factory, edges):
    try:
        dataset = homogenize(edges,
                             tmp_path_factory.mktemp("hypo"), n_roots=2)
    except Exception:
        pytest.skip("no eligible roots in this draw")
    csr = CSRGraph.from_edge_list(edges, symmetrize=not edges.directed)
    root = int(dataset.roots[0])
    ref = sssp_dijkstra(csr, root)
    for name in ("gap", "graphmat", "powergraph"):
        system = create_system(name)
        loaded = system.load(dataset)
        got = system.run(loaded, "sssp", root=root).output["dist"]
        validate_sssp_distances(got, ref, rtol=1e-4, atol=1e-5)


@given(edges=random_graphs())
@_SETTINGS
def test_wcc_agreement_property(tmp_path_factory, edges):
    try:
        dataset = homogenize(edges,
                             tmp_path_factory.mktemp("hypo"), n_roots=2)
    except Exception:
        pytest.skip("no eligible roots in this draw")
    csr = CSRGraph.from_edge_list(edges, symmetrize=not edges.directed)
    ref = weakly_connected_components(csr)
    for name in ("gap", "graphmat"):
        system = create_system(name)
        loaded = system.load(dataset)
        got = system.run(loaded, "wcc").output["labels"]
        assert np.array_equal(got, ref), name
