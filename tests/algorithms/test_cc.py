"""Oracle tests for afforest-style connected components.

The converged labels are canonical (each vertex carries the minimum
member id of its component), which makes every comparison exact: against
a pure-Python union-find oracle, against scipy's connected components,
and against the repo's own hash-min WCC reference.  The sampling +
giant-component-skip phases must not change the answer -- only the work
-- so ``neighbor_rounds`` is swept too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cc import (DEFAULT_NEIGHBOR_ROUNDS, afforest,
                                 shiloach_vishkin)
from repro.algorithms.wcc import weakly_connected_components
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph


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


def oracle_labels(graph):
    """Union-find with min-member canonicalization."""
    parent = list(range(graph.n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s, d in zip(graph.source_ids().tolist(), graph.col_idx.tolist()):
        rs, rd = find(s), find(d)
        if rs != rd:
            parent[max(rs, rd)] = min(rs, rd)
    labels = np.empty(graph.n_vertices, dtype=np.int64)
    mins = {}
    for v in range(graph.n_vertices):
        r = find(v)
        mins.setdefault(r, v)  # ids ascend, so first hit is the min
    for v in range(graph.n_vertices):
        labels[v] = mins[find(v)]
    return labels


@given(csr_graphs())
@settings(max_examples=100, deadline=None)
def test_afforest_matches_union_find_oracle(graph):
    assert np.array_equal(afforest(graph), oracle_labels(graph))


@given(csr_graphs())
@settings(max_examples=100, deadline=None)
def test_shiloach_vishkin_matches_union_find_oracle(graph):
    """The hook pulls over out- and in-rows, with the in-arcs
    transposed lazily or a stored transpose attached, and over a
    symmetrization once; each reads the oracle's labels in the same
    number of rounds."""
    want = oracle_labels(graph)
    src, dst = graph.source_ids(), graph.col_idx
    n = graph.n_vertices
    stored = CSRGraph(graph.row_ptr, graph.col_idx, graph.weights)
    stored.attach_transpose(CSRGraph.from_arrays(dst, src, n))
    sym = CSRGraph.from_arrays(np.concatenate([src, dst]),
                               np.concatenate([dst, src]), n,
                               symmetric=True)
    results = [shiloach_vishkin(graph), shiloach_vishkin(stored),
               shiloach_vishkin(sym)]
    for labels, rounds in results:
        assert np.array_equal(labels, want)
        assert rounds == results[0][1] >= 1


@given(csr_graphs())
@settings(max_examples=100, deadline=None)
def test_afforest_matches_hashmin_wcc(graph):
    """Both converge to min-member labels, so equality is exact."""
    assert np.array_equal(afforest(graph),
                          weakly_connected_components(graph))


@given(csr_graphs(), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_neighbor_rounds_never_change_the_answer(graph, rounds):
    """Sampling depth trades work, not correctness."""
    assert np.array_equal(afforest(graph, neighbor_rounds=rounds),
                          oracle_labels(graph))


@given(csr_graphs())
@settings(max_examples=60, deadline=None)
def test_labels_bit_identical_across_runs(graph):
    first = afforest(graph)
    second = afforest(graph, neighbor_rounds=DEFAULT_NEIGHBOR_ROUNDS)
    assert first.dtype == np.int64
    assert np.array_equal(first, second)


def test_direction_is_ignored():
    """Components are weak: a one-way chain is a single component."""
    graph = CSRGraph.from_arrays(np.array([0, 1, 2]),
                                 np.array([1, 2, 3]), 4)
    assert np.array_equal(afforest(graph), np.zeros(4, dtype=np.int64))


def test_disconnected_with_isolated_vertices():
    graph = CSRGraph.from_arrays(np.array([0, 3, 4]),
                                 np.array([1, 4, 5]), 8)
    want = np.array([0, 0, 2, 3, 3, 3, 6, 7], dtype=np.int64)
    assert np.array_equal(afforest(graph), want)


def test_giant_component_skip_keeps_small_components_exact():
    """A giant star plus late small components exercises the skip path:
    the rest-edge pass must still merge everything outside the giant."""
    n = 64
    star_s = np.zeros(40, dtype=np.int64)
    star_d = np.arange(1, 41, dtype=np.int64)
    tail_s = np.array([50, 51, 60, 62], dtype=np.int64)
    tail_d = np.array([51, 52, 61, 60], dtype=np.int64)
    graph = CSRGraph.from_arrays(np.concatenate([star_s, tail_s]),
                                 np.concatenate([star_d, tail_d]), n)
    assert np.array_equal(afforest(graph), oracle_labels(graph))


def test_negative_neighbor_rounds_rejected():
    graph = CSRGraph.from_arrays(np.array([0]), np.array([1]), 2)
    with pytest.raises(ConfigError, match="neighbor_rounds"):
        afforest(graph, neighbor_rounds=-1)


def test_edgeless_graph_is_all_singletons():
    empty = CSRGraph.from_arrays(np.empty(0, dtype=np.int64),
                                 np.empty(0, dtype=np.int64), 6)
    assert np.array_equal(afforest(empty), np.arange(6))
