"""Reference BFS vs. networkx, the push-only oracle, and structural
invariants."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import bfs_parents, bfs_rounds
from repro.graph import frontier as fr
from repro.graph.csr import CSRGraph
from repro.graph.validation import validate_bfs_parents
from tests.algorithms.oracles import multigraphs, oracle_bfs


def _nx_digraph(csr):
    g = nx.DiGraph()
    g.add_nodes_from(range(csr.n_vertices))
    src = csr.source_ids()
    g.add_edges_from(zip(src.tolist(), csr.col_idx.tolist()))
    return g


def test_levels_match_networkx(kron10_csr):
    root = 3
    level = bfs_parents(kron10_csr, root)[1]
    want = nx.single_source_shortest_path_length(_nx_digraph(kron10_csr),
                                                 root)
    for v in range(kron10_csr.n_vertices):
        if v in want:
            assert level[v] == want[v]
        else:
            assert level[v] == -1


def test_parents_validate(kron10_csr):
    parent, _ = bfs_parents(kron10_csr, 7)
    validate_bfs_parents(kron10_csr, 7, parent)


def test_tiny_graph_levels(tiny_csr):
    _, level = bfs_parents(tiny_csr, 0)
    assert level.tolist() == [0, 1, 1, 2, 3, -1]


def test_isolated_root():
    csr = CSRGraph.from_arrays(np.array([0]), np.array([1]), 3)
    parent, level = bfs_parents(csr, 2)
    assert level.tolist() == [-1, -1, 0]
    assert parent[2] == 2


def test_deterministic_parent_choice(tiny_csr):
    a, _ = bfs_parents(tiny_csr, 0)
    b, _ = bfs_parents(tiny_csr, 0)
    assert np.array_equal(a, b)
    # vertex 2 is adjacent to both 0 and 1 at level... its parent must
    # be the lowest-id frontier source: 0.
    assert a[2] == 0


@given(seed=st.integers(0, 2**31), n=st.integers(2, 60))
@settings(max_examples=30, deadline=None)
def test_bfs_tree_always_valid(seed, n):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4 * n))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    csr = CSRGraph.from_arrays(both_src, both_dst, n)
    root = int(rng.integers(0, n))
    parent, level = bfs_parents(csr, root)
    got = validate_bfs_parents(csr, root, parent)
    assert np.array_equal(got, level)


@pytest.mark.parametrize("share", [0.0, 2.0, fr.PULL_SHARE],
                         ids=["all-bottom-up", "all-top-down", "default"])
@given(graph=multigraphs(min_n=1), data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_level_loop_matches_push_only_oracle(share, graph, data,
                                             monkeypatch):
    """Whichever direction each level runs in, the level loop writes the
    push-only oracle's parent and level bytes and reports its rounds:
    on the directed multigraph (in-arcs transposed lazily or a stored
    transpose attached) and on its symmetrization read as its own
    transpose."""
    monkeypatch.setattr(fr, "PULL_SHARE", share)
    n, src, dst = graph
    root = data.draw(st.integers(0, n - 1), label="root")
    directed = CSRGraph.from_arrays(src, dst, n)
    stored = CSRGraph.from_arrays(src, dst, n)
    stored.attach_transpose(CSRGraph.from_arrays(dst, src, n))
    sym = CSRGraph.from_arrays(np.concatenate([src, dst]),
                               np.concatenate([dst, src]), n,
                               symmetric=True)
    for out in (directed, stored, sym):
        parent, level, rounds = bfs_rounds(out, root)
        want_parent, want_level, want_rounds = oracle_bfs(out, root)
        assert parent.tobytes() == want_parent.tobytes()
        assert level.tobytes() == want_level.tobytes()
        assert rounds == want_rounds
    got = bfs_parents(directed, root)
    want = oracle_bfs(directed, root)[:2]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
