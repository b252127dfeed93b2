"""Property-based equivalence tests for the shared frontier primitives.

Every primitive in :mod:`repro.graph.frontier` carries a bit-identity
contract against the naive NumPy idiom it replaced; these tests state
the naive versions inline and compare outputs exactly (``array_equal``,
never ``allclose``) under hypothesis-generated graphs covering empty
frontiers, self-loops, duplicate edges, and single-vertex graphs.  Both
of ``dedup_ids``' paths, the sort below ``n >> _SMALL_SHIFT`` ids and
the mask sweep above it, are exercised explicitly.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import frontier as frontier_lib
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.frontier import (arc_sum_operator, dedup_ids,
                                  first_parent_candidates,
                                  gather_slots, pull_min,
                                  relax_round, segment_min_scatter,
                                  sorted_unique)
from repro.graph.scratch import (COUNTERS, KernelScratch, consume_counters,
                                 scratch_for)

# ----------------------------------------------------------------------
# Naive references (the exact idioms the library replaced).
# ----------------------------------------------------------------------


def ref_gather(row_ptr, frontier):
    starts = row_ptr[frontier]
    counts = row_ptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slots = np.repeat(starts - offsets, counts) + np.arange(total)
    return slots, counts


def ref_claim(nbrs, srcs, visited, parent):
    """Fresh-filter + lexsort first-occurrence (min src per target)."""
    fresh = ~visited[nbrs]
    nbrs = nbrs[fresh]
    srcs = srcs[fresh]
    if nbrs.size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((srcs, nbrs))
    nbrs_s = nbrs[order]
    srcs_s = srcs[order]
    first = np.ones(nbrs_s.size, dtype=bool)
    first[1:] = nbrs_s[1:] != nbrs_s[:-1]
    new_v = nbrs_s[first]
    parent[new_v] = srcs_s[first]
    visited[new_v] = True
    return new_v


def old_push_round(csr, lengths, members, values, dist, scratch):
    """The push round the shard op and the streaming repair ran before
    every relaxation went through ``relax_round``: the sparse side of
    the deleted ``push_candidates`` (slot vector, source values repeated
    per segment, one gather each of ``col_idx`` and ``lengths``, filter)
    and then ``segment_min_scatter``.  Returns the improved ids and the
    members' out-degree sum."""
    gs = gather_slots(csr.row_ptr, members, scratch)
    cand = np.repeat(values[members], gs.counts)
    dsts = csr.col_idx[gs.slots]
    if lengths is not None:
        cand += lengths[gs.slots]
    better = cand < dist[dsts]
    return segment_min_scatter(dist, dsts[better], cand[better],
                               scratch), gs.total


def ref_min_scatter(dist, dsts, cand):
    np.minimum.at(dist, dsts, cand)
    return np.unique(dsts)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def csr_graphs(draw, max_n=50, max_m=160, weighted=False):
    """Random CSR with self-loops and duplicate edges allowed; ``max_n``
    small enough that the mask (large) paths trigger, see below."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = np.array(draw(st.lists(st.integers(0, n - 1),
                                 min_size=m, max_size=m)), dtype=np.int64)
    dst = np.array(draw(st.lists(st.integers(0, n - 1),
                                 min_size=m, max_size=m)), dtype=np.int64)
    w = None
    if weighted:
        w = np.array(draw(st.lists(st.floats(0.001, 10.0, allow_nan=False),
                                   min_size=m, max_size=m)))
    return CSRGraph.from_arrays(src, dst, n, weights=w)


@st.composite
def graph_and_frontier(draw, **kwargs):
    csr = draw(csr_graphs(**kwargs))
    n = csr.n_vertices
    members = draw(st.lists(st.integers(0, n - 1), max_size=n))
    frontier = np.unique(np.array(members, dtype=np.int64))
    return csr, frontier


# ----------------------------------------------------------------------
# gather_slots
# ----------------------------------------------------------------------


@given(graph_and_frontier())
@settings(max_examples=120, deadline=None)
def test_gather_slots_matches_repeat_arange(case):
    csr, frontier = case
    scratch = KernelScratch(csr.n_vertices, csr.n_edges)
    want_slots, want_counts = ref_gather(csr.row_ptr, frontier)
    gs = gather_slots(csr.row_ptr, frontier, scratch)
    assert np.array_equal(gs.slots, want_slots)
    assert np.array_equal(gs.counts, want_counts)
    assert gs.total == want_slots.size
    want_offsets = (np.concatenate(([0], np.cumsum(want_counts)[:-1]))
                    if want_counts.size else np.empty(0, dtype=np.int64))
    assert np.array_equal(gs.offsets, want_offsets)


def test_gather_slots_empty_frontier():
    csr = CSRGraph.from_arrays(np.array([0, 1]), np.array([1, 0]), 2)
    scratch = KernelScratch(2, 2)
    gs = gather_slots(csr.row_ptr, np.empty(0, dtype=np.int64), scratch)
    assert gs.total == 0
    assert gs.slots.size == 0 and gs.counts.size == 0


def test_gather_slots_counts_edges():
    csr = CSRGraph.from_arrays(np.array([0, 0, 1]), np.array([1, 2, 2]), 3)
    scratch = KernelScratch(3, 3)
    consume_counters()
    gather_slots(csr.row_ptr, np.array([0, 1], dtype=np.int64), scratch)
    assert consume_counters()["gather_edges"] == 3.0


def test_gather_slots_grows_arena():
    """A gather larger than the initial arena must still be exact."""
    n = 8
    src = np.repeat(np.arange(n), n)
    dst = np.tile(np.arange(n), n)
    csr = CSRGraph.from_arrays(src, dst, n)
    scratch = KernelScratch(n, 1)  # deliberately undersized
    frontier = np.arange(n, dtype=np.int64)
    gs = gather_slots(csr.row_ptr, frontier, scratch)
    want, _ = ref_gather(csr.row_ptr, frontier)
    assert np.array_equal(gs.slots, want)


# ----------------------------------------------------------------------
# first_parent_candidates
# ----------------------------------------------------------------------


def _run_claim_case(csr, frontier, visited0):
    n = csr.n_vertices
    scratch = KernelScratch(n, csr.n_edges)
    slots, counts = ref_gather(csr.row_ptr, frontier)
    nbrs = csr.col_idx[slots]
    srcs = np.repeat(frontier, counts)

    parent_ref = np.where(visited0, np.arange(n, dtype=np.int64), -1)
    visited_ref = visited0.copy()
    want_new = ref_claim(nbrs, srcs, visited_ref, parent_ref)

    visited = visited0.copy()
    got_new, got_parents, examined = first_parent_candidates(
        csr.row_ptr, csr.col_idx, frontier, visited, scratch)
    # Writes nothing but scratch, and hands the mask back all-False
    # (the reuse contract).
    assert np.array_equal(visited, visited0)
    assert not scratch.mask("claim").any()
    assert got_new.dtype == np.int64 and got_parents.dtype == np.int64
    assert np.array_equal(got_new, want_new)
    assert np.array_equal(got_parents, parent_ref[want_new])
    assert examined == int(counts.sum())


@given(graph_and_frontier(), st.data())
@settings(max_examples=120, deadline=None)
def test_first_parent_candidates_matches_lexsort(case, data):
    csr, frontier = case
    n = csr.n_vertices
    visited0 = np.array(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        dtype=bool)
    _run_claim_case(csr, frontier, visited0)


def test_claim_small_path_large_graph():
    """n large vs few edges: a duplicate target and a self-loop."""
    n = 1000
    src = np.array([0, 0, 1, 1, 2], dtype=np.int64)
    dst = np.array([5, 7, 5, 999, 2], dtype=np.int64)  # dup target + loop
    csr = CSRGraph.from_arrays(src, dst, n)
    visited0 = np.zeros(n, dtype=bool)
    visited0[[0, 1, 2]] = True
    _run_claim_case(csr, np.array([0, 1, 2], dtype=np.int64), visited0)


def test_claim_mask_path_dense_graph():
    """Many more edges than vertices: each target has many sources."""
    rng = np.random.default_rng(7)
    n = 64
    m = 512
    src = np.sort(rng.integers(0, n, m))
    dst = rng.integers(0, n, m)
    csr = CSRGraph.from_arrays(src, dst, n)
    visited0 = np.zeros(n, dtype=bool)
    visited0[rng.integers(0, n, 8)] = True
    frontier = np.unique(rng.integers(0, n, 20))
    _run_claim_case(csr, frontier, visited0)


def test_claim_frontier_without_out_arcs():
    """A frontier whose members all have out-degree 0 returns
    ``(int64[0], int64[0], 0)``."""
    csr = CSRGraph.from_arrays(np.array([0, 0]), np.array([1, 2]), 5)
    _run_claim_case(csr, np.array([1, 3, 4], dtype=np.int64),
                    np.zeros(5, dtype=bool))


# ----------------------------------------------------------------------
# relax_round: push below PULL_SHARE, pull at or above it
# ----------------------------------------------------------------------


def ref_relax(csr, members, values, dist, adds):
    """The round as the push kernels typed it out: every out-arc of a
    member offers ``values[src] + w`` (``w`` the arc's weight when
    ``adds`` is ``None``, else ``adds``), ``np.minimum.at`` applies the
    offers to a copy, ``np.unique`` names the improved destinations and
    every destination reached is touched."""
    slots, counts = ref_gather(csr.row_ptr, members)
    dsts = csr.col_idx[slots]
    cand = values[np.repeat(members, counts)]
    if adds is None:
        cand = cand + csr.weights[slots]
    else:
        cand = cand + adds
    after = dist.copy()
    np.minimum.at(after, dsts, cand)
    touched = np.zeros(dist.size, dtype=bool)
    touched[dsts] = True
    return after, np.unique(dsts[cand < dist[dsts]]), int(counts.sum()), \
        touched


@st.composite
def relax_cases(draw):
    """A multigraph with parallel arcs, self-loops, empty rows (m = 0
    included) and, sometimes, ``+inf`` weights; members that are none,
    all, or a drawn subset, some of them unreachable (value ``inf``)."""
    csr, members = draw(graph_and_frontier(weighted=True))
    n, m = csr.n_vertices, csr.n_edges
    if m and draw(st.booleans()):
        w = csr.weights.copy()
        w[::3] = np.inf
        csr = CSRGraph(csr.row_ptr, csr.col_idx, w)
    pick = draw(st.sampled_from(["drawn", "none", "all"]))
    if pick == "none":
        members = np.empty(0, dtype=np.int64)
    elif pick == "all":
        members = np.arange(n)
    maybe_inf = st.one_of(st.floats(0.0, 20.0, allow_nan=False),
                          st.just(np.inf))
    dist = np.array(draw(st.lists(maybe_inf, min_size=n, max_size=n)))
    # Aliased: the values are the very array being relaxed, as in SSSP.
    alias = draw(st.booleans())
    values = dist if alias else np.array(
        draw(st.lists(maybe_inf, min_size=n, max_size=n)))
    return csr, members, values, dist, alias


def _relax_forced(share, *args, **kwargs):
    """``relax_round`` with :data:`PULL_SHARE` pinned: 0 always pulls,
    2 always pushes (but on ``m = 0``, which has nothing to push)."""
    saved = frontier_lib.PULL_SHARE
    frontier_lib.PULL_SHARE = share
    try:
        return relax_round(*args, **kwargs)
    finally:
        frontier_lib.PULL_SHARE = saved


ADDS = st.sampled_from([None, 0.0, 1.0])


@given(relax_cases(), ADDS, st.booleans())
@settings(max_examples=250, deadline=None)
def test_relax_round_sides_match_reference(case, adds, use_touched):
    csr, members, values, dist0, alias = case
    n = csr.n_vertices
    want_dist, want_ids, want_examined, want_touched = ref_relax(
        csr, members, values, dist0, adds)
    scratch = KernelScratch(n, csr.n_edges)
    for share in (0.0, 2.0, frontier_lib.PULL_SHARE):
        for inn in (None, csr.transposed()):
            dist = dist0.copy()
            vals = dist if alias else values
            touched = np.zeros(n, dtype=bool) if use_touched else None
            ids, examined = _relax_forced(share, csr, inn, members, vals,
                                          dist, scratch, adds=adds,
                                          touched=touched)
            assert dist.tobytes() == want_dist.tobytes()
            assert ids.dtype == np.int64
            assert np.array_equal(ids, want_ids)
            assert examined == want_examined
            if use_touched:
                assert np.array_equal(touched, want_touched)
            assert not scratch.mask("push").any()
            assert not scratch.mask("dedup").any()


@st.composite
def old_push_cases(draw):
    """A multigraph (zero-weight arcs, parallel arcs, self-loops, rows
    without arcs, sometimes no weights at all), sorted members, what an
    arc adds, and per-vertex values and distances with ``inf``
    entries, the values sometimes the distances themselves."""
    weighted = draw(st.booleans())
    csr, members = draw(graph_and_frontier(weighted=weighted))
    n, m = csr.n_vertices, csr.n_edges
    if weighted and m and draw(st.booleans()):
        w = csr.weights.copy()
        w[::3] = 0.0
        csr = CSRGraph(csr.row_ptr, csr.col_idx, w)
    adds = draw(ADDS)
    maybe_inf = st.one_of(st.floats(0.0, 20.0, allow_nan=False),
                          st.just(np.inf))
    dist = np.array(draw(st.lists(maybe_inf, min_size=n, max_size=n)))
    alias = draw(st.booleans())
    values = dist if alias else np.array(
        draw(st.lists(maybe_inf, min_size=n, max_size=n)))
    return csr, members, adds, values, dist, alias


@given(old_push_cases())
@settings(max_examples=250, deadline=None)
def test_relax_round_matches_the_old_push_body(case):
    """Pinned to always pull (``PULL_SHARE`` 0) and to always push
    (infinity), ``relax_round`` writes the bytes the old push round
    wrote and returns its ids and examined count, for every kind of
    ``adds``: the arc's weight, or 0 or 1 for every arc (the old body
    read the latter as a length array of that constant)."""
    csr, members, adds, values, dist0, alias = case
    n, m = csr.n_vertices, csr.n_edges
    lengths = csr.weights if adds is None else np.full(m, adds)
    scratch = KernelScratch(n, m)
    want = dist0.copy()
    want_ids, want_examined = old_push_round(
        csr, lengths, members, want if alias else values, want, scratch)
    for share in (0.0, float("inf")):
        dist = dist0.copy()
        ids, examined = _relax_forced(share, csr, None, members,
                                      dist if alias else values, dist,
                                      scratch, adds=adds)
        assert dist.tobytes() == want.tobytes()
        assert ids.tobytes() == want_ids.tobytes()
        assert examined == want_examined


def test_relax_round_empty_members_and_empty_graph():
    none = np.empty(0, dtype=np.int64)
    csr = CSRGraph.from_arrays(np.array([0, 1]), np.array([1, 0]), 2)
    for share in (0.0, float("inf")):
        for adds in (None, 1.0):
            dist = np.zeros(2)
            ids, examined = _relax_forced(share, csr, None, none, dist,
                                          dist, KernelScratch(2, 2),
                                          adds=adds)
            assert (ids.size, examined) == (0, 0)
            assert dist.tolist() == [0.0, 0.0]
            empty = CSRGraph.from_arrays(none, none, 3)
            dist = np.zeros(3)
            ids, examined = _relax_forced(share, empty, None,
                                          np.array([0, 2]), dist, dist,
                                          KernelScratch(3, 0), adds=adds)
            assert (ids.size, examined) == (0, 0)


@given(csr_graphs(weighted=True), st.data())
@settings(max_examples=150, deadline=None)
def test_pull_over_a_symmetrized_out_csr_is_the_pull_over_its_transpose(
        csr, data):
    """``EdgeList.symmetrized()`` gives every vertex one (neighbour,
    weight) multiset in and out, so the out-CSR serves as its own
    in-arcs: the identity the systems rely on for undirected input."""
    n = csr.n_vertices
    src, dst = csr.source_ids(), csr.col_idx
    sym = EdgeList(src, dst, n, weights=csr.weights).symmetrized()
    out = CSRGraph.from_arrays(sym.src, sym.dst, n, weights=sym.weights)
    members = np.unique(np.array(data.draw(st.lists(
        st.integers(0, n - 1), max_size=n)), dtype=np.int64))
    dist0 = np.array(data.draw(st.lists(
        st.one_of(st.floats(0.0, 20.0), st.just(np.inf)),
        min_size=n, max_size=n)))
    runs = []
    for inn in (out, out.transposed()):
        dist, touched = dist0.copy(), np.zeros(n, dtype=bool)
        ids, _ = _relax_forced(0.0, out, inn, members, dist0, dist,
                               KernelScratch(n, out.n_edges),
                               touched=touched)
        runs.append((dist.tobytes(), ids.tolist(), touched.tolist()))
    assert runs[0] == runs[1]


def test_relax_round_inf_weight_signals_but_never_improves():
    csr = CSRGraph.from_arrays(np.array([0, 0]), np.array([1, 2]), 3,
                               weights=np.array([np.inf, 1.0]))
    for share in (0.0, 2.0):
        dist = np.array([0.0, np.inf, np.inf])
        touched = np.zeros(3, dtype=bool)
        ids, examined = _relax_forced(share, csr, None, np.array([0]),
                                      dist, dist, KernelScratch(3, 2),
                                      touched=touched)
        assert ids.tolist() == [2] and examined == 2
        assert dist.tolist() == [0.0, np.inf, 1.0]
        assert touched.tolist() == [False, True, True]


def test_relax_round_switches_on_share_and_transposes_lazily():
    """A star: a leaf owns no arc and pushes, the hub owns them all and
    pulls -- only then is the transpose built, and its arcs are counted
    like the push side's."""
    k = 40
    csr = CSRGraph.from_arrays(np.zeros(k, dtype=np.int64),
                               np.arange(1, k + 1), k + 1,
                               weights=np.full(k, 0.5))
    scratch = KernelScratch(k + 1, k)
    dist = np.full(k + 1, np.inf)
    dist[0] = 0.0
    consume_counters()
    ids, examined = relax_round(csr, None, np.array([3]), dist, dist,
                                scratch)
    assert ids.size == 0 and examined == 0
    assert "_transposed" not in csr.__dict__
    ids, examined = relax_round(csr, None, np.array([0]), dist, dist,
                                scratch)
    assert np.array_equal(ids, np.arange(1, k + 1)) and examined == k
    assert "_transposed" in csr.__dict__
    assert consume_counters()["gather_edges"] == float(k)


def test_pull_min_is_the_reduceat_over_nonempty_rows():
    starts = np.array([0, 2, 3])
    col_idx = np.array([1, 2, 0, 2, 1])
    src_val = np.array([5.0, 1.0, np.inf])
    lengths = np.array([0.5, 0.0, 2.0, 1.0, 4.0])
    assert pull_min(starts, col_idx, lengths, src_val).tolist() == \
        [1.5, 7.0, 5.0]
    assert pull_min(starts, col_idx, None, src_val).tolist() == \
        [1.0, 5.0, 1.0]


# ----------------------------------------------------------------------
# segment_min_scatter / dedup_ids
# ----------------------------------------------------------------------


@given(st.integers(1, 60), st.data())
@settings(max_examples=120, deadline=None)
def test_segment_min_scatter_matches_minimum_at(n, data):
    k = data.draw(st.integers(0, 200))
    dsts = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                       min_size=k, max_size=k)),
                    dtype=np.int64)
    cand = np.array(data.draw(st.lists(
        st.floats(0.0, 50.0, allow_nan=False), min_size=k, max_size=k)))
    dist0 = np.array(data.draw(st.lists(
        st.floats(0.0, 50.0, allow_nan=False), min_size=n, max_size=n)))

    dist_ref = dist0.copy()
    want = (ref_min_scatter(dist_ref, dsts, cand) if k
            else np.empty(0, dtype=np.int64))

    scratch = KernelScratch(n)
    dist_new = dist0.copy()
    got = segment_min_scatter(dist_new, dsts, cand, scratch)
    assert np.array_equal(got, want)
    assert np.array_equal(dist_new, dist_ref)  # bitwise: min is exact
    assert not scratch.mask("dedup").any()


@given(st.integers(1, 80), st.data())
@settings(max_examples=120, deadline=None)
def test_dedup_ids_is_unique(n, data):
    k = data.draw(st.integers(0, 300))
    ids = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                      min_size=k, max_size=k)),
                   dtype=np.int64)
    scratch = KernelScratch(n)
    got = dedup_ids(ids, n, scratch)
    assert np.array_equal(got, np.unique(ids))
    assert not scratch.mask("dedup").any()


def test_dedup_ids_both_paths(monkeypatch):
    """Just below ``n >> _SMALL_SHIFT`` ids the sort branch answers,
    from there on the mask sweep; both are ``np.unique``."""
    sorted_calls = []
    real = frontier_lib.sorted_unique

    def spy(ids):
        sorted_calls.append(ids.size)
        return real(ids)

    monkeypatch.setattr(frontier_lib, "sorted_unique", spy)
    for n in (1000, 4096, 1 << 16):
        scratch = KernelScratch(n)
        for size in ((n >> frontier_lib._SMALL_SHIFT) - 1,
                     n >> frontier_lib._SMALL_SHIFT):
            sorted_calls.clear()
            ids = np.random.default_rng(size).integers(0, n, size)
            assert np.array_equal(dedup_ids(ids, n, scratch),
                                  np.unique(ids))
            small = size < (n >> frontier_lib._SMALL_SHIFT)
            assert sorted_calls == ([size] if small else [])
            assert not scratch.mask("dedup").any()


# ----------------------------------------------------------------------
# sorted_unique
# ----------------------------------------------------------------------
@given(st.sampled_from([np.int32, np.int64]), st.data())
@settings(max_examples=200, deadline=None)
def test_sorted_unique_is_np_unique(dtype, data):
    """Same values and same dtype as ``np.unique``, negative ids and
    the extremes of the dtype included."""
    info = np.iinfo(dtype)
    values = data.draw(st.lists(st.one_of(
        st.integers(-4, 4), st.integers(int(info.min), int(info.max))),
        max_size=200))
    ids = np.array(values, dtype=dtype)
    got, want = sorted_unique(ids), np.unique(ids)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("values", [[], [7], [-3], [5] * 9, [-1] * 4,
                                    [3, -2, 3, -2, 0]],
                         ids=["empty", "one", "one-negative", "all-equal",
                              "all-equal-negative", "mixed-sign"])
def test_sorted_unique_edge_cases(dtype, values):
    ids = np.array(values, dtype=dtype)
    got, want = sorted_unique(ids), np.unique(ids)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# arc_sum_operator
# ----------------------------------------------------------------------


@given(csr_graphs(max_n=30, max_m=200), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_arc_sum_operator_is_the_ordered_bincount(csr, symmetrize, data):
    # Parallel arcs, self-loops, empty rows and m = 0 all come out of
    # ``csr_graphs``; operands ten orders of magnitude apart make a
    # re-associated sum land on other low-order bits.  A symmetrized
    # multigraph is marked so, and is its own transpose.
    n = csr.n_vertices
    if symmetrize:
        csr = CSRGraph.from_edge_list(
            EdgeList(csr.source_ids(), csr.col_idx, n), symmetrize=True)
        assert csr.transposed() is csr
    x = np.array(data.draw(st.lists(st.floats(1e-10, 1.0),
                                    min_size=n, max_size=n)))
    row_ptr, col_idx = csr.row_ptr, csr.col_idx
    rows = np.repeat(np.arange(n), np.diff(row_ptr))

    # Gather form -- the sweep GAP, PowerGraph and the shard op typed
    # out until PR 24.
    want = np.bincount(rows, weights=x[col_idx], minlength=n)
    got = arc_sum_operator(row_ptr, col_idx, n) @ x
    assert got.tobytes() == want.tobytes()

    # Over the in-arcs it is the scatter along the out-arcs --
    # GraphBIG's and the reference's sweep, once typed out as either.
    inn = csr.transposed()
    want = np.bincount(col_idx, weights=x[rows], minlength=n)
    got = arc_sum_operator(inn.row_ptr, inn.col_idx, n) @ x
    assert got.tobytes() == want.tobytes()
    at_zeros = np.zeros(n)
    np.add.at(at_zeros, col_idx, x[rows])
    assert got.tobytes() == at_zeros.tobytes()

    # A row range, the way GAP's blocks cut one (lo == hi included).
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    arcs = slice(row_ptr[lo], row_ptr[hi])
    want = np.bincount(rows[arcs] - lo, weights=x[col_idx[arcs]],
                       minlength=hi - lo)
    got = arc_sum_operator(row_ptr, col_idx, n, rows=(lo, hi)) @ x
    assert got.tobytes() == want.tobytes()


def test_arc_sum_operator_rectangular_slice():
    # A shard's pull slice: 2 owned rows over a 5-vertex column space.
    op = arc_sum_operator(np.array([0, 3, 3]), np.array([4, 0, 4]), 5)
    x = np.array([1.0, 2.0, 3.0, 4.0, 0.5])
    assert (op @ x).tolist() == [2.0, 0.0]
    assert op.shape == (2, 5)


# ----------------------------------------------------------------------
# Scratch registry
# ----------------------------------------------------------------------


def test_scratch_for_memoizes_per_object():
    csr = CSRGraph.from_arrays(np.array([0]), np.array([1]), 2)
    s1 = scratch_for(csr, 2, 1)
    s2 = scratch_for(csr, 2, 1)
    assert s1 is s2
    other = CSRGraph.from_arrays(np.array([0]), np.array([1]), 2)
    assert scratch_for(other, 2, 1) is not s1


def test_scratch_reuse_counter():
    scratch = KernelScratch(8, 8)
    scratch.edge_i64(4)
    consume_counters()
    scratch.edge_i64(4)
    assert consume_counters()["scratch_reuse"] == 1.0
    assert COUNTERS["scratch_reuse"] == 0.0


# ----------------------------------------------------------------------
# CSRGraph derived-structure regressions
# ----------------------------------------------------------------------


def test_source_ids_memoized_and_readonly():
    csr = CSRGraph.from_arrays(np.array([0, 0, 1]), np.array([1, 2, 0]), 3)
    s1 = csr.source_ids()
    assert s1 is csr.source_ids()
    assert not s1.flags.writeable
    with pytest.raises(ValueError):
        s1[0] = 9


def test_transposed_memoized():
    csr = CSRGraph.from_arrays(np.array([0, 2]), np.array([1, 0]), 3)
    t1 = csr.transposed()
    assert t1 is csr.transposed()
    assert np.array_equal(*map(np.sort, (t1.col_idx, np.array([0, 2]))))


def test_memo_caches_dropped_from_pickle():
    csr = CSRGraph.from_arrays(np.array([0, 1]), np.array([1, 2]), 3)
    csr.source_ids()
    csr.transposed()
    clone = pickle.loads(pickle.dumps(csr))
    assert "_source_ids" not in clone.__dict__
    assert "_transposed" not in clone.__dict__
    assert np.array_equal(clone.source_ids(), csr.source_ids())


def test_pull_constants_memoized_and_dropped_from_pickle():
    csr = CSRGraph.from_arrays(np.array([0, 0, 3, 3]),
                               np.array([1, 3, 0, 3]), 5,
                               weights=np.array([1.0, 2.0, np.inf, 4.0]))
    rows, starts = csr.pull_rows()
    assert csr.pull_rows()[0] is rows
    assert rows.tolist() == [0, 3] and starts.tolist() == [0, 2]
    assert csr.max_weight() == np.inf
    clone = pickle.loads(pickle.dumps(csr))
    assert "_pull_rows" not in clone.__dict__
    assert "_max_weight" not in clone.__dict__
    assert clone.pull_rows()[1].tolist() == [0, 2]
    with pytest.raises(GraphFormatError):
        CSRGraph.from_arrays(rows, rows, 5).max_weight()


def test_row_block_views_rows_and_commutes_with_the_split():
    csr = CSRGraph.from_arrays(np.array([0, 1, 1, 2, 2, 2]),
                               np.array([1, 0, 2, 0, 1, 2]), 4,
                               weights=np.array([.1, .9, .2, .8, .3, .7]))
    block = csr.row_block(1, 3)
    assert block.row_ptr.tolist() == [0, 2, 5]
    assert block.col_idx.base is csr.col_idx
    assert block.col_idx.tolist() == [0, 2, 0, 1, 2]
    for whole, part in zip(csr.weight_split(0.5), block.weight_split(0.5)):
        same = whole.row_block(1, 3)
        assert same.row_ptr.tolist() == part.row_ptr.tolist()
        assert same.col_idx.tolist() == part.col_idx.tolist()
        assert same.weights.tolist() == part.weights.tolist()
