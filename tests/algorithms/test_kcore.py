"""Oracle tests for k-core decomposition.

The reference oracle is the textbook Matula-Beck peel: repeatedly
remove a minimum-degree vertex of the *simple undirected* graph and
assign it the running maximum of the degrees seen at removal time.
Core numbers are mathematically unique, so every comparison is exact
integer equality -- including the level peel against the
``O(n)``-rescan naive baseline it must match bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.kcore import (core_numbers, core_numbers_naive,
                                    peel_cores)
from repro.graph.csr import CSRGraph
from repro.graph.simple import simple_undirected_view


@st.composite
def csr_graphs(draw, max_n=40, max_m=140):
    """Random CSR with self-loops and duplicate edges allowed."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = np.array(draw(st.lists(st.integers(0, n - 1),
                                 min_size=m, max_size=m)), dtype=np.int64)
    dst = np.array(draw(st.lists(st.integers(0, n - 1),
                                 min_size=m, max_size=m)), dtype=np.int64)
    return CSRGraph.from_arrays(src, dst, n)


def oracle_core_numbers(graph):
    """Vertex-at-a-time min-degree peel over the simple undirected view."""
    view = simple_undirected_view(graph.col_idx, graph.source_ids(),
                                  graph.n_vertices)
    n = view.n_vertices
    adj = {v: set(view.neighbors(v).tolist()) for v in range(n)}
    deg = {v: len(adj[v]) for v in range(n)}
    remaining = set(range(n))
    core = np.zeros(n, dtype=np.int64)
    level = 0
    while remaining:
        v = min(remaining, key=lambda u: (deg[u], u))
        level = max(level, deg[v])
        core[v] = level
        remaining.remove(v)
        for w in adj[v]:
            if w in remaining:
                deg[w] -= 1
    return core


@given(csr_graphs())
@settings(max_examples=100, deadline=None)
def test_core_numbers_match_matula_beck_oracle(graph):
    assert np.array_equal(core_numbers(graph), oracle_core_numbers(graph))


@given(csr_graphs())
@settings(max_examples=100, deadline=None)
def test_fast_peel_matches_naive_rescan(graph):
    """The level peel and the O(n)-rescan baseline agree exactly."""
    assert np.array_equal(core_numbers(graph), core_numbers_naive(graph))


@given(csr_graphs())
@settings(max_examples=60, deadline=None)
def test_core_numbers_bit_identical_across_runs(graph):
    first = core_numbers(graph)
    second = core_numbers(graph)
    assert first.dtype == np.int64
    assert np.array_equal(first, second)


def test_self_loops_and_duplicates_ignored():
    """Loops and parallel edges must not inflate core numbers."""
    src = np.array([0, 0, 0, 1, 2, 2], dtype=np.int64)
    dst = np.array([1, 1, 0, 2, 0, 2], dtype=np.int64)
    clean = CSRGraph.from_arrays(np.array([0, 1, 2]),
                                 np.array([1, 2, 0]), 3)
    noisy = CSRGraph.from_arrays(src, dst, 3)
    want = np.array([2, 2, 2], dtype=np.int64)  # the triangle is a 2-core
    assert np.array_equal(core_numbers(clean), want)
    assert np.array_equal(core_numbers(noisy), want)


def test_isolated_and_edgeless_vertices():
    graph = CSRGraph.from_arrays(np.array([0, 1]), np.array([1, 0]), 5)
    core = core_numbers(graph)
    assert np.array_equal(core, [1, 1, 0, 0, 0])

    empty = CSRGraph.from_arrays(np.empty(0, dtype=np.int64),
                                 np.empty(0, dtype=np.int64), 4)
    assert np.array_equal(core_numbers(empty), np.zeros(4, dtype=np.int64))


def test_known_nested_cores():
    """A 4-clique with a pendant path: cores 3 / 1 are forced."""
    clique_s, clique_d = zip(*[(a, b) for a in range(4) for b in range(4)
                               if a != b])
    src = np.array(list(clique_s) + [3, 4], dtype=np.int64)
    dst = np.array(list(clique_d) + [4, 5], dtype=np.int64)
    core = core_numbers(CSRGraph.from_arrays(src, dst, 6))
    assert np.array_equal(core, [3, 3, 3, 3, 1, 1])


def test_peel_cores_operates_on_view_directly():
    graph = CSRGraph.from_arrays(np.array([0, 1, 2]), np.array([1, 2, 0]), 3)
    view = simple_undirected_view(graph.col_idx, graph.source_ids(), 3)
    core, rounds = peel_cores(view)
    assert np.array_equal(core, core_numbers(graph))
    # The triangle goes in one round touching all six view arcs, at
    # core number 2.
    assert rounds == [(3, 6, 2)]


@given(csr_graphs())
@settings(max_examples=100, deadline=None)
def test_peel_rounds_cover_every_vertex_and_arc_once(graph):
    """Each vertex is peeled in exactly one round, a round touches the
    view arcs of the vertices it peels, and it carries the core number
    it assigns: levels never fall, and the last is the largest core."""
    view = simple_undirected_view(graph.col_idx, graph.source_ids(),
                                  graph.n_vertices)
    core, rounds = peel_cores(view)
    assert sum(peeled for peeled, _, _ in rounds) == view.n_vertices
    assert sum(arcs for _, arcs, _ in rounds) == view.n_edges
    levels = [level for _, _, level in rounds]
    assert levels == sorted(levels)
    assert levels[-1] == core.max()
    assert sorted(set(levels)) == sorted(set(core.tolist()))
