"""Tests for community detection by label propagation."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cdlp import cdlp, propagate_labels_once
from repro.graph.csr import CSRGraph


def _csr(src, dst, n):
    return CSRGraph.from_arrays(np.asarray(src), np.asarray(dst), n)


def test_one_round_mode():
    """Vertex 3 hears labels {0, 0, 1}: mode is 0."""
    csr = _csr([0, 1, 2, 0], [3, 3, 3, 1], 4)
    labels = np.array([0, 0, 1, 3], dtype=np.int64)
    out = propagate_labels_once(csr.source_ids(), csr.col_idx, labels, 4)
    assert out[3] == 0


def test_tie_breaks_to_smallest():
    """Labels {7, 2} tie at one each: 2 wins."""
    csr = _csr([0, 1], [2, 2], 3)
    labels = np.array([7, 2, 9], dtype=np.int64)
    out = propagate_labels_once(csr.source_ids(), csr.col_idx, labels, 3)
    assert out[2] == 2


def test_isolated_vertex_keeps_label():
    csr = _csr([0], [1], 3)
    labels = np.arange(3, dtype=np.int64)
    out = propagate_labels_once(csr.source_ids(), csr.col_idx, labels, 3)
    assert out[2] == 2


def test_clique_converges_to_min_id():
    n = 6
    src, dst = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                src.append(i)
                dst.append(j)
    csr = _csr(src, dst, n)
    labels = cdlp(csr, iterations=5)
    assert np.all(labels == 0)


def test_two_cliques_separate():
    src, dst = [], []
    for block in (range(0, 4), range(4, 8)):
        for i in block:
            for j in block:
                if i != j:
                    src.append(i)
                    dst.append(j)
    csr = _csr(src, dst, 8)
    labels = cdlp(csr, iterations=5)
    assert np.all(labels[:4] == 0)
    assert np.all(labels[4:] == 4)


def test_deterministic(kron10_csr):
    a = cdlp(kron10_csr, 6)
    b = cdlp(kron10_csr, 6)
    assert np.array_equal(a, b)


def test_zero_iterations_identity(kron10_csr):
    labels = cdlp(kron10_csr, 0)
    assert np.array_equal(labels, np.arange(kron10_csr.n_vertices))


def test_empty_graph():
    csr = CSRGraph(row_ptr=np.zeros(4, dtype=np.int64),
                   col_idx=np.array([], dtype=np.int64))
    labels = cdlp(csr, 3)
    assert np.array_equal(labels, np.arange(3))


def _propagate_labels_once_lexsort(src, dst, labels, n):
    """The round as it was before the winner became a ``reduceat``
    (commit 2af891b), verbatim: the oracle."""
    if src.size == 0:
        return labels.copy()
    v = dst
    lab = labels[src]
    if n <= np.iinfo(np.int64).max // max(n, 1):
        order = np.argsort(v * np.int64(n) + lab, kind="stable")
    else:  # pragma: no cover - n beyond any harness scale
        order = np.lexsort((lab, v))
    v_s = v[order]
    lab_s = lab[order]
    new_pair = np.ones(v_s.size, dtype=bool)
    new_pair[1:] = (v_s[1:] != v_s[:-1]) | (lab_s[1:] != lab_s[:-1])
    starts = np.flatnonzero(new_pair)
    counts = np.diff(np.append(starts, v_s.size))
    pair_v = v_s[starts]
    pair_lab = lab_s[starts]
    sel = np.lexsort((-pair_lab, counts, pair_v))
    pv = pair_v[sel]
    last = np.ones(pv.size, dtype=bool)
    last[:-1] = pv[1:] != pv[:-1]
    winners_v = pv[last]
    winners_lab = pair_lab[sel][last]
    out = labels.copy()
    out[winners_v] = winners_lab
    return out


def _propagate_labels_once_argsort(src, dst, labels, n):
    """The round as it was before it sorted the key values themselves,
    verbatim: argsort the keys, then gather both columns through the
    order.  Valid for labels below ``n`` only (its packing base)."""
    if src.size == 0:
        return labels.copy()
    if int(n) * max(int(n), src.size) >= 2 ** 62:  # pragma: no cover
        raise ValueError(f"CDLP keys do not pack into int64 at n = {n}")
    v = dst
    lab = labels[src]
    order = np.argsort(v * np.int64(n) + lab)
    v_s = v[order]
    lab_s = lab[order]
    new_pair = np.ones(v_s.size, dtype=bool)
    new_pair[1:] = (v_s[1:] != v_s[:-1]) | (lab_s[1:] != lab_s[:-1])
    starts = np.flatnonzero(new_pair)
    counts = np.diff(np.append(starts, v_s.size))
    pair_v = v_s[starts]
    pair_lab = lab_s[starts]
    new_v = np.ones(pair_v.size, dtype=bool)
    new_v[1:] = pair_v[1:] != pair_v[:-1]
    group_starts = np.flatnonzero(new_v)
    best = np.maximum.reduceat(counts * n + (n - 1 - pair_lab),
                               group_starts)
    out = labels.copy()
    out[pair_v[group_starts]] = n - 1 - best % n
    return out


def _propagate_labels_once_counter(src, dst, labels):
    """The specification, one vertex at a time: the most frequent label
    over a vertex's in-arcs, ties to the smallest; any label values."""
    heard = {}
    for s, d in zip(src.tolist(), dst.tolist()):
        heard.setdefault(d, Counter())[int(labels[s])] += 1
    out = labels.copy()
    for v, counts in heard.items():
        out[v] = min(counts, key=lambda lab: (-counts[lab], lab))
    return out


@st.composite
def _labelled_multigraphs(draw, label_hi=None):
    """Arc arrays with parallel arcs, self-loops and isolated vertices,
    plus a starting labelling that is *not* the identity (many vertices
    share a label, so counts above 1 and count ties are the norm).
    Labels stay below ``n`` unless ``label_hi`` (a multiple of ``n``)
    lets them reach past it."""
    n = draw(st.integers(1, 14))
    ids = st.integers(0, n - 1)
    m = draw(st.integers(0, 60))
    src = draw(st.lists(ids, min_size=m, max_size=m))
    dst = draw(st.lists(ids, min_size=m, max_size=m))
    top = draw(ids) if label_hi is None else draw(
        st.integers(0, label_hi * n))
    labels = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            np.array(labels, dtype=np.int64), n)


@given(_labelled_multigraphs())
@settings(max_examples=300, deadline=None)
def test_round_equals_the_lexsort_round(case):
    src, dst, labels, n = case
    before = labels.copy()
    for _ in range(3):
        want = _propagate_labels_once_lexsort(src, dst, labels, n)
        got = propagate_labels_once(src, dst, labels, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        labels = got
    assert np.array_equal(before, case[2])  # input never written


def test_ten_rounds_equal_the_lexsort_rounds_on_kron10(kron10_csr):
    src, dst = kron10_csr.source_ids(), kron10_csr.col_idx
    n = kron10_csr.n_vertices
    want = np.arange(n, dtype=np.int64)
    for _ in range(10):
        want = _propagate_labels_once_lexsort(src, dst, want, n)
    assert np.array_equal(cdlp(kron10_csr, 10), want)


@given(_labelled_multigraphs())
@settings(max_examples=300, deadline=None)
def test_round_equals_the_argsort_round(case):
    src, dst, labels, n = case
    for _ in range(3):
        want = _propagate_labels_once_argsort(src, dst, labels, n)
        got = propagate_labels_once(src, dst, labels, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        labels = got


@given(_labelled_multigraphs(label_hi=4))
@settings(max_examples=300, deadline=None)
def test_round_equals_the_specification_for_labels_past_n(case):
    """Labels at or above ``n`` (the packing base must grow to hold
    them) on multigraphs with self-loops and isolated vertices."""
    src, dst, labels, n = case
    before = labels.copy()
    for _ in range(3):
        want = _propagate_labels_once_counter(src, dst, labels)
        got = propagate_labels_once(src, dst, labels, n)
        assert np.array_equal(got, want)
        labels = got
    assert np.array_equal(before, case[2])  # input never written
