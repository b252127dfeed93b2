"""Delta-stepping's light and heavy arcs as two CSRs.

``CSRGraph.weight_split`` stores the arcs lighter than delta and the
rest as two CSRs in the original arc order, and ``LocalSweeps.relax``
relaxes one of them with ``relax_round``.  Until commit 703aad4 a
relaxation round gathered every out-arc of its members and dropped the
other set through a per-arc mask; that body is typed out below as the
oracle.  Multigraphs come from :func:`tests.algorithms.oracles.multigraphs`
with weights that tie with delta, are zero or are ``inf``.
"""

import pickle
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.frontier as frontier_lib
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.scratch import KernelScratch
from repro.graph.sweeps import RELAX_HEAVY, RELAX_LIGHT, LocalSweeps
from tests.algorithms.oracles import multigraphs

WEIGHTS = st.sampled_from([0.0, 0.0, 0.001, 0.1, 0.25, 0.25, 0.3, 1.0,
                           7.5, np.inf])
DELTAS = st.sampled_from([0.001, 0.25, 0.3, 1.0, 5.0, np.inf])


@st.composite
def weighted_graphs(draw, directed=None):
    """``(out, inn)``: a weighted multigraph and its in-arc CSR,
    ``out.transposed()`` -- ``out`` itself when symmetrized."""
    n, src, dst = draw(multigraphs(min_n=1))
    w = np.array(draw(st.lists(WEIGHTS, min_size=src.size,
                               max_size=src.size)), dtype=np.float64)
    if directed is None:
        directed = draw(st.booleans())
    out = CSRGraph.from_edge_list(EdgeList(src, dst, n, weights=w),
                                  symmetrize=not directed)
    return out, out.transposed()


def _same_csr(a: CSRGraph, b: CSRGraph) -> bool:
    return (a.row_ptr.tobytes() == b.row_ptr.tobytes()
            and a.col_idx.tobytes() == b.col_idx.tobytes()
            and a.weights.tobytes() == b.weights.tobytes())


@given(weighted_graphs(directed=True), DELTAS)
@settings(max_examples=300, deadline=None)
def test_parts_are_the_mask_filter_and_commute_with_transpose(graph, delta):
    out, inn = graph
    n = out.n_vertices
    src = out.source_ids()
    light_mask = out.weights < delta
    parts = out.weight_split(delta)
    for part, mask in zip(parts, (light_mask, ~light_mask)):
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[mask], minlength=n), out=row_ptr[1:])
        assert _same_csr(part, CSRGraph(row_ptr, out.col_idx[mask],
                                        out.weights[mask]))
    # The in-arcs' parts are the parts' transposes, byte for byte.
    for in_part, part in zip(inn.weight_split(delta), parts):
        assert _same_csr(in_part, part.transposed())


@given(weighted_graphs(), DELTAS, DELTAS)
@settings(max_examples=100, deadline=None)
def test_split_memo_holds_one_delta_and_stays_out_of_pickles(graph, delta,
                                                             other):
    out, _ = graph
    parts = out.weight_split(delta)
    assert out.weight_split(delta) is parts
    clone = pickle.loads(pickle.dumps(out))
    assert "_weight_split" not in clone.__dict__
    assert all(map(_same_csr, clone.weight_split(delta), parts))
    again = out.weight_split(other)
    assert (again is parts) == (other == delta)
    assert out.__dict__["_weight_split"][0] == other


# ----------------------------------------------------------------------
# LocalSweeps.relax against the keep-mask body it replaced
# ----------------------------------------------------------------------
def keep_mask_relax(out, dist, members, mode, delta):
    """``LocalSweeps.relax`` at 703aad4: every out-arc of ``members``
    is gathered, the other set is dropped through a per-arc mask, and
    the survivors are relaxed with ``minimum.at``; returns the improved
    ids and the gathered count."""
    starts = out.row_ptr[members]
    counts = out.row_ptr[members + 1] - starts
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    slots = np.repeat(starts - offsets, counts) + np.arange(total)
    srcs = np.repeat(members, counts)
    keep = out.weights[slots] < delta
    if mode == RELAX_HEAVY:
        keep = ~keep
    slots, srcs = slots[keep], srcs[keep]
    dsts = out.col_idx[slots]
    cand = dist[srcs] + out.weights[slots]
    better = cand < dist[dsts]
    np.minimum.at(dist, dsts[better], cand[better])
    return np.unique(dsts[better]), total


#: ``PULL_SHARE`` 0 always pulls, 2 always pushes; ``None`` leaves it.
@pytest.mark.parametrize("pull_share", [0.0, None, 2.0],
                         ids=["pull", "default", "push"])
@pytest.mark.parametrize("directed", [True, False],
                         ids=["directed", "undirected"])
def test_relax_matches_the_keep_mask_body(directed, pull_share):
    @given(weighted_graphs(directed), DELTAS, st.data())
    @settings(max_examples=80, deadline=None)
    def check(graph, delta, data):
        out, _ = graph
        n = out.n_vertices
        root = data.draw(st.integers(0, n - 1))
        local = LocalSweeps(out, KernelScratch(n, out.n_edges))
        dist = local.begin_sssp(root, delta)
        want = dist.copy()
        members = np.array([root], dtype=np.int64)
        for _ in range(data.draw(st.integers(1, 10))):
            mode = data.draw(st.sampled_from([RELAX_LIGHT, RELAX_HEAVY]))
            if data.draw(st.booleans()):
                picks = data.draw(st.lists(st.booleans(), min_size=n,
                                           max_size=n))
                members = np.flatnonzero(np.array(picks, dtype=bool))
            ids, examined = local.relax(members, mode)
            want_ids, want_examined = keep_mask_relax(out, want, members,
                                                      mode, delta)
            assert ids.dtype == np.int64
            assert ids.tobytes() == want_ids.tobytes()
            assert examined == want_examined
            assert dist.tobytes() == want.tobytes()
            if ids.size:
                members = ids

    pinned = (nullcontext() if pull_share is None else
              mock.patch.object(frontier_lib, "PULL_SHARE", pull_share))
    with pinned:
        check()
