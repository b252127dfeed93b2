"""The shard ops and the ring merge against the bodies they replaced.

``op_td`` and ``op_relax`` used to be a third copy of the sweep (slot
vector, three gathers per arc, a stable argsort per reduction).
``op_td`` is now the :mod:`repro.graph.frontier` primitives applied to
a slice, with scatters doing the per-id minima; the old body, as of
commit d5b168a, is typed out below as the oracle of its ring, on both
sides of the primitives' internal switch, and the old sort-and-reduce
merge as the oracle of the engine's concatenation.  A relax round
crosses only when it pulls, so ``op_relax`` has no push ring left: the
old push body, run over the whole graph, is the oracle of what
``ShardEngine.relax`` writes whichever way the round goes, and a pulled
ring has its own oracle, the minimum over each owned vertex's whole
in-row.
"""

from contextlib import ExitStack
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.frontier as frontier_mod
import repro.shard.engine as engine_mod
from repro.graph.frontier import gather_slots, out_arc_count
from repro.graph.scratch import KernelScratch
from repro.graph.sweeps import RELAX_HEAVY, RELAX_LIGHT
from repro.shard import ops
from repro.shard.engine import ShardEngine
from tests.shard.test_identity import multigraphs


# ----------------------------------------------------------------------
# The bodies at d5b168a; each returns the ring it would have emitted.
# ----------------------------------------------------------------------
def old_min_per_id(ids, vals):
    order = np.argsort(ids, kind="stable")
    ids_s = ids[order]
    first = np.ones(ids_s.size, dtype=bool)
    first[1:] = ids_s[1:] != ids_s[:-1]
    mins = np.minimum.reduceat(vals[order], np.flatnonzero(first))
    return ids_s[first], mins


EMPTY = np.empty(0, dtype=np.int64), np.empty(0)


def old_op_td(ctx, frontier):
    gs = gather_slots(ctx.out.row_ptr, frontier, ctx.scratch)
    if gs.total == 0:
        return *EMPTY, 0
    nbrs = ctx.out.col_idx[gs.slots]
    srcs = np.repeat(frontier, gs.counts)
    keep = ~ctx.visited[nbrs]
    nbrs = nbrs[keep]
    srcs = srcs[keep]
    if nbrs.size == 0:
        return *EMPTY, gs.total
    uniq, mins = old_min_per_id(nbrs, srcs)
    return uniq, mins.astype(np.float64), gs.total


def old_op_relax(ctx, members, mode, delta):
    """The old push ring; over the whole graph it is the serial push."""
    gs = gather_slots(ctx.out.row_ptr, members, ctx.scratch)
    if gs.total == 0:
        return *EMPTY, 0
    keep = ctx.out.weights[gs.slots] < delta
    if mode != RELAX_LIGHT:
        keep = ~keep
    slots = gs.slots[keep]
    srcs = np.repeat(members, gs.counts)[keep]
    if slots.size == 0:
        return *EMPTY, gs.total
    dsts = ctx.out.col_idx[slots]
    cand = ctx.vec[srcs] + ctx.out.weights[slots]
    better = cand < ctx.vec[dsts]
    dsts_b = dsts[better]
    if dsts_b.size == 0:
        return *EMPTY, gs.total
    uniq, mins = old_min_per_id(dsts_b, cand[better])
    return uniq, mins, gs.total


def old_relax(g, vec, members, mode, delta):
    """The distances and improved ids the old push round leaves."""
    whole = SimpleNamespace(out=g.out, vec=vec,
                            scratch=KernelScratch(g.n, g.out.n_edges))
    ids, mins, _ = old_op_relax(whole, members, mode, delta)
    want = vec.copy()
    want[ids] = np.minimum(want[ids], mins)
    return ids, want


def old_merge_min(rings):
    all_ids = np.concatenate([r[0] for r in rings])
    all_val = np.concatenate([r[1] for r in rings])
    if all_ids.size == 0:
        return all_ids, all_val
    return old_min_per_id(all_ids, all_val)


# ----------------------------------------------------------------------
def _assert_rings_equal(got, want):
    assert len(got) == len(want)
    for (ids, vals, examined), (w_ids, w_vals, w_examined) in zip(got, want):
        assert ids.dtype == np.int64 and vals.dtype == np.float64
        assert ids.tobytes() == w_ids.tobytes()
        assert vals.tobytes() == w_vals.tobytes()
        assert examined == w_examined


def _subset(data, n):
    picks = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.flatnonzero(np.array(picks, dtype=bool))


#: ``_SMALL_SHIFT`` 0 makes ``dedup_ids`` sort whenever fewer than
#: ``n`` ids are touched and 63 never; ``PULL_SHARE`` 0 makes every
#: relax round dense (it pulls, and crosses) and infinity every one
#: sparse (it pushes, in the parent).  ``None`` leaves the module's own
#: value.
@pytest.mark.parametrize("pull_share", [0.0, None, float("inf")],
                         ids=["dense", "default", "sparse"])
@pytest.mark.parametrize("small_shift", [0, None, 63],
                         ids=["sort", "default", "mask"])
def test_ops_and_merge_match_the_old_bodies(small_shift, pull_share):
    @given(multigraphs(), st.integers(1, 3), st.data())
    @settings(max_examples=25, deadline=None)
    def check(g, shards, data):
        n = g.n
        with ShardEngine(g.out, g.inn, n_shards=shards,
                         inline=True) as engine:
            state = engine._arrays
            delta = data.draw(st.sampled_from([0.01, 0.25, 5.0]))
            engine.begin_sssp(0, delta)
            state["visited"][:] = False
            state["visited"][_subset(data, n)] = True
            state["in_frontier"][_subset(data, n)] = True
            state["vec"][:] = data.draw(st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, np.inf]),
                min_size=n, max_size=n))
            members = _subset(data, n)
            mode = data.draw(st.sampled_from([RELAX_LIGHT, RELAX_HEAVY]))
            before = {k: state[k].tobytes()
                      for k in ("visited", "vec", "in_frontier")}

            def superstep(*args, **kwargs):
                # Ring contents are views that the next round overwrites.
                return [(ids.copy(), vals.copy(), examined) for
                        ids, vals, examined in
                        engine._superstep(*args, **kwargs)]

            def unchanged():
                return all(state[k].tobytes() == b
                           for k, b in before.items())

            rings = superstep(ops.OP_TD, frontier=members)
            assert unchanged()
            _assert_rings_equal(
                rings, [old_op_td(c, members) for c in engine._contexts])
            want_ids, want_min = old_merge_min(rings)
            got_ids, got_min = ShardEngine.merge(rings)
            assert got_ids.tobytes() == want_ids.tobytes()
            assert got_min.tobytes() == want_min.tobytes()

            superstep(ops.OP_BU)
            assert unchanged()

            want_ids, want = old_relax(g, state["vec"], members, mode,
                                       delta)
            crossed = engine.rounds
            got_ids, examined = engine.relax(members, mode)
            assert got_ids.tobytes() == want_ids.tobytes()
            assert state["vec"].tobytes() == want.tobytes()
            assert examined == out_arc_count(g.out.row_ptr, members)
            if pull_share is not None:
                assert engine.rounds - crossed == (pull_share == 0)

    with ExitStack() as pinned:
        for module, name, value in (
                (frontier_mod, "_SMALL_SHIFT", small_shift),
                (frontier_mod, "PULL_SHARE", pull_share),
                (engine_mod, "_INLINE_ARCS", 0)):
            if value is not None:
                pinned.enter_context(
                    mock.patch.object(module, name, value))
        check()


def whole_row_minima(inn, owned, members, vec, mode, delta):
    """The pull ring of a shard owning ``owned``: each owned vertex
    whose minimum ``vec[u] + w`` over its whole in-row (arcs of the
    mode's weight class, members ``u`` only) beats ``vec[v]``."""
    is_member = np.zeros(vec.size, dtype=bool)
    is_member[members] = True
    ids, vals = [], []
    for v in owned:
        lo, hi = inn.row_ptr[v], inn.row_ptr[v + 1]
        u, w = inn.col_idx[lo:hi], inn.weights[lo:hi]
        keep = is_member[u] & ((w < delta) == (mode == RELAX_LIGHT))
        if keep.any():
            best = (vec[u[keep]] + w[keep]).min()
            if best < vec[v]:
                ids.append(v)
                vals.append(best)
    return (np.array(ids, dtype=np.int64), np.array(vals, dtype=np.float64))


@given(multigraphs(), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_pull_rings_are_whole_row_minima(g, shards, data):
    """A pulled relax round: each shard emits its owned vertices'
    improved whole-row minima (the examined count is the parent's),
    writes no shared state, and merges to the distances the old push
    body leaves."""
    n = g.n
    with ShardEngine(g.out, g.inn, n_shards=shards, inline=True) as engine:
        state = engine._arrays
        state["vec"][:] = data.draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, np.inf]),
            min_size=n, max_size=n))
        members = _subset(data, n)
        delta = data.draw(st.sampled_from([0.01, 0.25, 5.0]))
        state["ctrl_f"][ops.CTRL_DELTA] = delta
        mode = data.draw(st.sampled_from([RELAX_LIGHT, RELAX_HEAVY]))
        before = state["vec"].tobytes()

        pulled = [(ids.copy(), vals.copy(), examined) for
                  ids, vals, examined in engine._superstep(
                      ops.OP_RELAX, frontier=members, mode=mode)]
        assert state["vec"].tobytes() == before
        want = [(*whole_row_minima(g.inn, range(c.lo, c.hi), members,
                                   state["vec"], mode, delta), 0)
                for c in engine._contexts]
        _assert_rings_equal(pulled, want)
        assert all(not np.isfinite(c.src_val).any()
                   for c in engine._contexts)  # handed back clean
        want_ids, want_vec = old_relax(g, state["vec"], members, mode,
                                       delta)
        ids, dists = ShardEngine.merge(pulled)
        assert ids.tobytes() == want_ids.tobytes()
        assert dists.tobytes() == want_vec[ids].tobytes()
        vec = state["vec"].copy()
        vec[ids] = dists
        assert vec.tobytes() == want_vec.tobytes()
