"""Oracle tests for the deterministic Luby-style maximal independent set.

With *static* per-vertex priorities the parallel Luby rounds compute
exactly the set the sequential greedy sweep (visit vertices in
increasing priority, take unless a neighbor was taken) would -- that
set is unique for a given priority permutation, so agreement is exact.
The suites also check the defining properties directly: independence,
maximality, and seed-stable bit-identity across repeated runs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.mis import (DEFAULT_MIS_SEED, luby_rounds,
                                  maximal_independent_set, mis_priorities)
from repro.graph.csr import CSRGraph
from repro.graph.simple import simple_undirected_view
from tests.algorithms.oracles import oracle_greedy


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


def _view(graph):
    return simple_undirected_view(graph.col_idx, graph.source_ids(),
                                  graph.n_vertices)


@given(csr_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_luby_matches_sequential_greedy(graph, seed):
    pr = mis_priorities(graph.n_vertices, seed)
    view = _view(graph)
    in_set, rounds = luby_rounds(view, pr)
    assert np.array_equal(in_set, oracle_greedy(view, pr))
    assert len(rounds) >= (1 if graph.n_vertices else 0)
    # The first round starts with every vertex undecided.
    assert rounds[0][:2] == (view.n_vertices, view.n_edges)


@given(csr_graphs())
@settings(max_examples=100, deadline=None)
def test_result_is_independent_and_maximal(graph):
    in_set = maximal_independent_set(graph)
    view = _view(graph)
    src = view.source_ids()
    dst = view.col_idx
    # Independence: no simple edge joins two set members.
    assert not np.any(in_set[src] & in_set[dst])
    # Maximality: every non-member has a member neighbor (self-loop-free
    # view, so isolated vertices are always members).
    covered = in_set.copy()
    if src.size:
        covered |= np.bincount(src, weights=in_set[dst].astype(np.float64),
                               minlength=view.n_vertices) > 0
    assert covered.all()


@given(csr_graphs())
@settings(max_examples=60, deadline=None)
def test_default_seed_bit_identical_across_runs(graph):
    first = maximal_independent_set(graph)
    second = maximal_independent_set(graph, seed=DEFAULT_MIS_SEED)
    assert first.dtype == np.bool_
    assert np.array_equal(first, second)


def test_priorities_are_a_seeded_permutation():
    pr = mis_priorities(17, 123)
    assert pr.dtype == np.int64
    assert np.array_equal(np.sort(pr), np.arange(17))
    assert np.array_equal(pr, mis_priorities(17, 123))
    assert not np.array_equal(pr, mis_priorities(17, 124))
    # No seed is the default seed, the one every system resolves to.
    assert np.array_equal(mis_priorities(17, None),
                          mis_priorities(17, DEFAULT_MIS_SEED))


def test_self_loops_do_not_block_membership():
    """A self-looped vertex is still eligible: loops vanish in the
    simple view, so an isolated self-looper must join the set."""
    graph = CSRGraph.from_arrays(np.array([0, 1]), np.array([0, 2]), 3)
    in_set = maximal_independent_set(graph)
    assert in_set[0]


def test_path_graph_takes_alternating_set():
    """On a 3-path the unique MIS for any priority with middle vertex
    losing is both endpoints."""
    graph = CSRGraph.from_arrays(np.array([0, 1]), np.array([1, 2]), 3)
    pr = np.array([0, 1, 2], dtype=np.int64)
    in_set, _ = luby_rounds(_view(graph), pr)
    assert np.array_equal(in_set, [True, False, True])


def test_edgeless_graph_takes_everyone():
    empty = CSRGraph.from_arrays(np.empty(0, dtype=np.int64),
                                 np.empty(0, dtype=np.int64), 5)
    assert maximal_independent_set(empty).all()
