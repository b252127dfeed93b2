"""Property-based tests for the lazy monotone :class:`BucketQueue`.

The queue was generalized out of GAP's delta-stepping; its contract is that a pop yields *exactly* the
sorted-unique member set a full ``np.flatnonzero(key == k)`` scan of the
lowest occupied bucket would have produced, with stale entries (pushed
under a key that has since changed) skipped lazily.  The reference model
here is that literal scan over the caller-owned ``key`` array.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.frontier import BucketQueue


def scan_reference(key):
    """Lowest live bucket by brute-force scan: ``(k, sorted ids)``."""
    live = key >= 0
    if not live.any():
        return None
    k = int(key[live].min())
    return k, np.flatnonzero(key == k).astype(np.int64)


def drain(bq, key):
    """Pop-to-empty, retiring members (``key = -1``) after each pop."""
    out = []
    while (got := bq.pop(key)) is not None:
        k, members = got
        out.append((k, members.copy()))
        key[members] = -1
    return out


@st.composite
def key_arrays(draw, max_n=60, max_key=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    keys = draw(st.lists(st.integers(-1, max_key), min_size=n, max_size=n))
    return np.array(keys, dtype=np.int64)


@given(key_arrays())
@settings(max_examples=120, deadline=None)
def test_drain_matches_scan_reference(key):
    """Push everything once; each pop must equal the brute-force scan."""
    bq = BucketQueue()
    live = np.flatnonzero(key >= 0).astype(np.int64)
    bq.push(live, key[live])
    while (want := scan_reference(key)) is not None:
        got = bq.pop(key)
        assert got is not None
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        key[got[1]] = -1
    assert bq.pop(key) is None


@given(key_arrays(), st.data())
@settings(max_examples=120, deadline=None)
def test_decrease_key_repush_pops_at_new_key(key, data):
    """Re-pushing under a lower key makes the old entries stale: the
    vertex must surface in its *new* bucket and never in the old one."""
    bq = BucketQueue()
    live = np.flatnonzero(key >= 0).astype(np.int64)
    bq.push(live, key[live])
    if live.size:
        # Decrease a random subset of keys and re-push, as relax does.
        k = data.draw(st.integers(1, live.size))
        idx = np.array(data.draw(st.lists(
            st.integers(0, live.size - 1), min_size=k, max_size=k,
            unique=True)), dtype=np.int64)
        moved = live[idx]
        key[moved] = np.maximum(key[moved] - data.draw(st.integers(1, 5)), 0)
        bq.push(moved, key[moved])
    popped = drain(bq, key.copy())
    keys_out = [k for k, _ in popped]
    assert keys_out == sorted(keys_out)  # monotone pop order
    seen = np.concatenate([m for _, m in popped]) if popped else \
        np.empty(0, dtype=np.int64)
    # Every live vertex appears exactly once, at its final (lowest) key.
    assert np.array_equal(np.sort(seen), np.sort(live))
    for k, members in popped:
        assert np.array_equal(key[members], np.full(members.size, k))


@given(key_arrays())
@settings(max_examples=120, deadline=None)
def test_duplicate_pushes_pop_sorted_unique(key):
    """Pushing the same vertices repeatedly must not duplicate pops."""
    bq = BucketQueue()
    live = np.flatnonzero(key >= 0).astype(np.int64)
    for _ in range(3):
        bq.push(live, key[live])
    popped = drain(bq, key.copy())
    seen = np.concatenate([m for _, m in popped]) if popped else \
        np.empty(0, dtype=np.int64)
    assert np.array_equal(np.sort(seen), np.sort(live))
    for _, members in popped:
        assert np.array_equal(members, np.unique(members))


def old_push_slices(vertices, keys):
    """The per-key slices ``push`` used to cut: ``np.unique(...,
    return_index=True)`` over the stably sorted keys."""
    order = np.argsort(keys, kind="stable")
    sorted_vertices = vertices[order]
    sorted_keys = keys[order]
    uniq, starts = np.unique(sorted_keys, return_index=True)
    bounds = np.append(starts, sorted_keys.size)
    return [(int(k), sorted_vertices[bounds[i]:bounds[i + 1]])
            for i, k in enumerate(uniq)]


@given(st.lists(key_arrays(max_key=40), min_size=1, max_size=4))
@settings(max_examples=120, deadline=None)
def test_push_cuts_the_slices_of_the_old_body(batches):
    """Each batch lands in the pending lists as exactly the old body's
    per-key slices, appended in push order; the heap holds each pending
    key once."""
    bq = BucketQueue()
    want: dict[int, list[np.ndarray]] = {}
    for keys in batches:
        vertices = np.random.default_rng(keys.size).permutation(keys.size)
        bq.push(vertices, keys)
        for k, part in old_push_slices(vertices, keys):
            want.setdefault(k, []).append(part)
    assert sorted(bq._heap) == sorted(want)
    assert bq._pending.keys() == want.keys()
    for k, parts in want.items():
        got = bq._pending[k]
        assert len(got) == len(parts)
        for g, w in zip(got, parts):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def test_pop_skips_fully_stale_bucket():
    """A bucket whose every entry went stale is skipped, not returned
    empty -- the lazy-bucket part of the contract."""
    key = np.array([5, 5, 7], dtype=np.int64)
    bq = BucketQueue()
    bq.push(np.array([0, 1], dtype=np.int64), key[[0, 1]])
    key[[0, 1]] = 7  # both entries in bucket 5 are now stale
    bq.push(np.array([0, 1], dtype=np.int64), key[[0, 1]])
    bq.push(np.array([2], dtype=np.int64), key[[2]])
    got = bq.pop(key)
    assert got is not None
    k, members = got
    assert k == 7
    assert np.array_equal(members, [0, 1, 2])
    key[members] = -1
    assert bq.pop(key) is None


def test_empty_queue_pops_none():
    bq = BucketQueue()
    assert bq.pop(np.empty(0, dtype=np.int64)) is None
    bq.push(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert bq.pop(np.empty(0, dtype=np.int64)) is None


class TestPushAlignment:
    """Regression: misaligned push arrays must raise, not drop entries.

    A longer ``vertices`` array used to silently lose its tail after
    the ``vertices[order]`` fancy-indexing, leaving vertices with a
    live key but no pending entry -- they were never popped.
    """

    def test_longer_vertices_rejected(self):
        import pytest

        from repro.errors import ConfigError

        bq = BucketQueue()
        with pytest.raises(ConfigError, match=r"3.*!=.*2"):
            bq.push(np.array([0, 1, 2], dtype=np.int64),
                    np.array([4, 4], dtype=np.int64))

    def test_longer_vertices_with_empty_keys_rejected(self):
        import pytest

        from repro.errors import ConfigError

        bq = BucketQueue()
        # The old early-return on empty keys masked the mismatch.
        with pytest.raises(ConfigError):
            bq.push(np.array([0, 1], dtype=np.int64),
                    np.empty(0, dtype=np.int64))

    def test_longer_keys_rejected(self):
        import pytest

        from repro.errors import ConfigError

        bq = BucketQueue()
        with pytest.raises(ConfigError):
            bq.push(np.array([0], dtype=np.int64),
                    np.array([1, 2], dtype=np.int64))
