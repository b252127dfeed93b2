"""Differential tests for the incremental kernels.

BFS and SSSP repairs must be **bit-identical** to the from-scratch
references after every batch; warm PageRank must stay within the
contraction bound of the cold result.  Cases cover the repair paths
individually (cut tree arcs, disconnection, reconnection, weight
changes, pure inserts) plus randomized chains, both directed and via
hypothesis-driven interleavings.  The hypothesis chains also compare
every repair -- arrays *and* ``RepairStats`` -- with the loop the
frontier rounds replaced, typed out below as :func:`_heap_repair`.
"""

import heapq
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import incremental
from repro.algorithms.bfs import bfs_parents
from repro.algorithms.incremental import (
    IncrementalBFS,
    IncrementalPageRank,
    IncrementalSSSP,
    RepairStats,
    pagerank_l1_bound,
    pagerank_warm,
)
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp_dijkstra
from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, MutationBatch
from repro.graph.frontier import out_arc_count, pulls


def _batch(ins=(), dels=(), w=None):
    ins = list(ins)
    dels = list(dels)
    return MutationBatch(
        insert_src=np.array([e[0] for e in ins], dtype=np.int64),
        insert_dst=np.array([e[1] for e in ins], dtype=np.int64),
        insert_weights=None if w is None else np.asarray(w, np.float64),
        delete_src=np.array([e[0] for e in dels], dtype=np.int64),
        delete_dst=np.array([e[1] for e in dels], dtype=np.int64))


def assert_bfs_matches(kernel, snap, root):
    p_ref, l_ref = bfs_parents(snap, root)
    assert kernel.level.tobytes() == l_ref.tobytes()
    assert kernel.parent.tobytes() == p_ref.tobytes()


def assert_sssp_matches(kernel, snap, root):
    d_ref = sssp_dijkstra(snap, root)
    assert kernel.dist.tobytes() == d_ref.tobytes()


class TestIncrementalBFS:
    def test_insert_only_shortens_paths(self):
        g = DynamicGraph(6)
        g.apply(_batch(ins=[(0, 1), (1, 2), (2, 3), (3, 4)]))
        k = IncrementalBFS(g.snapshot(), 0)
        applied = g.apply(_batch(ins=[(0, 4)]))
        snap = g.snapshot()
        stats = k.update(snap, applied)
        assert isinstance(stats, RepairStats)
        assert_bfs_matches(k, snap, 0)
        assert k.level[4] == 1

    def test_cut_tree_arc_orphans_subtree(self):
        # 0 -> 1 -> 2 -> 3 with a backup path 0 -> 4 -> 2.
        g = DynamicGraph(5)
        g.apply(_batch(ins=[(0, 1), (1, 2), (2, 3), (0, 4), (4, 2)]))
        k = IncrementalBFS(g.snapshot(), 0)
        applied = g.apply(_batch(dels=[(1, 2)]))
        snap = g.snapshot()
        stats = k.update(snap, applied)
        assert stats.n_cut == 1
        assert_bfs_matches(k, snap, 0)
        assert k.level[2] == 2 and k.parent[2] == 4

    def test_disconnect_then_reconnect(self):
        g = DynamicGraph(4)
        g.apply(_batch(ins=[(0, 1), (1, 2), (2, 3)]))
        k = IncrementalBFS(g.snapshot(), 0)
        applied = g.apply(_batch(dels=[(1, 2)]))
        snap = g.snapshot()
        k.update(snap, applied)
        assert_bfs_matches(k, snap, 0)
        assert k.level[2] == -1 and k.level[3] == -1
        applied = g.apply(_batch(ins=[(0, 3), (3, 2)]))
        snap = g.snapshot()
        k.update(snap, applied)
        assert_bfs_matches(k, snap, 0)
        assert k.level[3] == 1 and k.level[2] == 2

    def test_parent_tiebreak_min_witness(self):
        # Both 1 and 2 reach 3 at the same level; 1 must win.
        g = DynamicGraph(4)
        g.apply(_batch(ins=[(0, 1), (0, 2), (2, 3)]))
        k = IncrementalBFS(g.snapshot(), 0)
        applied = g.apply(_batch(ins=[(1, 3)]))
        snap = g.snapshot()
        k.update(snap, applied)
        assert_bfs_matches(k, snap, 0)
        assert k.parent[3] == 1

    def test_empty_batch_is_noop(self):
        g = DynamicGraph(4)
        g.apply(_batch(ins=[(0, 1)]))
        k = IncrementalBFS(g.snapshot(), 0)
        applied = g.apply(_batch())
        snap = g.snapshot()
        stats = k.update(snap, applied)
        assert stats == RepairStats(0, 0, 0)
        assert_bfs_matches(k, snap, 0)

    def test_random_chain_bit_identical(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            n = int(rng.integers(5, 40))
            g = DynamicGraph(n)
            m0 = int(rng.integers(n, 3 * n))
            g.apply(_batch(ins=list(zip(rng.integers(0, n, m0),
                                        rng.integers(0, n, m0)))))
            root = int(rng.integers(0, n))
            k = IncrementalBFS(g.snapshot(), root)
            for _ in range(6):
                ki = int(rng.integers(0, 8))
                kd = int(rng.integers(0, 8))
                applied = g.apply(_batch(
                    ins=list(zip(rng.integers(0, n, ki),
                                 rng.integers(0, n, ki))),
                    dels=list(zip(rng.integers(0, n, kd),
                                  rng.integers(0, n, kd)))))
                snap = g.snapshot()
                k.update(snap, applied)
                assert_bfs_matches(k, snap, root)


class TestIncrementalSSSP:
    def test_requires_weights(self):
        g = DynamicGraph(3)
        g.apply(_batch(ins=[(0, 1)]))
        with pytest.raises(ValidationError, match="weighted"):
            IncrementalSSSP(g.snapshot(), 0)

    def test_weight_decrease_propagates(self):
        g = DynamicGraph(4, weighted=True)
        g.apply(_batch(ins=[(0, 1), (1, 2), (2, 3)], w=[1.0, 5.0, 1.0]))
        k = IncrementalSSSP(g.snapshot(), 0)
        applied = g.apply(_batch(ins=[(1, 2)], w=[0.5]))
        snap = g.snapshot()
        k.update(snap, applied)
        assert_sssp_matches(k, snap, 0)
        assert k.dist[3] == 1.0 + 0.5 + 1.0

    def test_weight_increase_on_tree_arc_reroutes(self):
        g = DynamicGraph(4, weighted=True)
        g.apply(_batch(ins=[(0, 1), (1, 2), (0, 2)], w=[1.0, 1.0, 9.0]))
        k = IncrementalSSSP(g.snapshot(), 0)
        assert k.dist[2] == 2.0
        # Raising (1,2) makes the direct arc the shortest path.
        applied = g.apply(_batch(ins=[(1, 2)], w=[100.0]))
        snap = g.snapshot()
        k.update(snap, applied)
        assert_sssp_matches(k, snap, 0)
        assert k.dist[2] == 9.0

    def test_delete_disconnects(self):
        g = DynamicGraph(3, weighted=True)
        g.apply(_batch(ins=[(0, 1), (1, 2)], w=[1.0, 1.0]))
        k = IncrementalSSSP(g.snapshot(), 0)
        applied = g.apply(_batch(dels=[(1, 2)]))
        snap = g.snapshot()
        k.update(snap, applied)
        assert_sssp_matches(k, snap, 0)
        assert np.isinf(k.dist[2]) and k.parent[2] == -1

    def test_negative_insert_rejected_not_looped_on(self):
        # 0 -> 1 -> 2 -> 0 with the closing arc negative: every lap
        # round the cycle improves, so an unchecked repair never ends
        # (it used to spin in its heap loop).  Hence the subprocess:
        # pytest-timeout is not installed.
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent("""
                import numpy as np
                from repro.algorithms.incremental import IncrementalSSSP
                from repro.errors import ValidationError
                from repro.graph.dynamic import DynamicGraph, MutationBatch
                g = DynamicGraph(3, weighted=True)
                g.apply(MutationBatch(insert_src=[0, 1], insert_dst=[1, 2],
                                      insert_weights=[1.0, 1.0]))
                k = IncrementalSSSP(g.snapshot(), 0)
                before = k.dist.tobytes() + k.parent.tobytes()
                applied = g.apply(MutationBatch(
                    insert_src=[2], insert_dst=[0], insert_weights=[-5.0]))
                try:
                    k.update(g.snapshot(), applied)
                except ValidationError as exc:
                    assert "non-negative" in str(exc), exc
                    assert k.dist.tobytes() + k.parent.tobytes() == before
                    print("rejected")
                """)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "rejected"

    def test_nan_insert_rejected_before_any_state_moves(self):
        # 0 -> 1 -> 2 and 0 -> 2: a NaN overwriting the weight of
        # 1 -> 2 orphans 2 and used to poison the minimum over its
        # in-arcs, so 2 came back unreachable although 0 -> 2 is there.
        g = DynamicGraph(3, weighted=True)
        g.apply(_batch(ins=[(0, 1), (1, 2), (0, 2)], w=[1.0, 1.0, 5.0]))
        k = IncrementalSSSP(g.snapshot(), 0)
        before = k.dist.tobytes() + k.parent.tobytes()
        applied = g.apply(_batch(ins=[(1, 2)], w=[float("nan")]))
        with pytest.raises(ValidationError, match="non-negative"):
            k.update(g.snapshot(), applied)
        assert k.dist.tobytes() + k.parent.tobytes() == before

    @pytest.mark.xfail(strict=True, reason=(
        "known limit, older than the frontier rounds: the min-id "
        "supporter rule is only a tree while no cycle of arcs is flat "
        "(fl(d + w) == d); on a zero-weight cycle two vertices support "
        "each other and a cut above them goes unseen"))
    def test_zero_weight_cycle_hides_a_cut(self):
        g = DynamicGraph(3, weighted=True)
        g.apply(_batch(ins=[(2, 1), (1, 0), (0, 1)], w=[1.0, 0.0, 0.0]))
        k = IncrementalSSSP(g.snapshot(), 2)
        applied = g.apply(_batch(dels=[(2, 1)]))
        snap = g.snapshot()
        k.update(snap, applied)
        assert_sssp_matches(k, snap, 2)

    def test_random_chain_bit_identical(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            n = int(rng.integers(5, 40))
            g = DynamicGraph(n, weighted=True)
            m0 = int(rng.integers(n, 3 * n))
            g.apply(_batch(ins=list(zip(rng.integers(0, n, m0),
                                        rng.integers(0, n, m0))),
                           w=rng.uniform(0.1, 2.0, m0)))
            root = int(rng.integers(0, n))
            k = IncrementalSSSP(g.snapshot(), root)
            for _ in range(6):
                ki = int(rng.integers(0, 8))
                kd = int(rng.integers(0, 8))
                applied = g.apply(_batch(
                    ins=list(zip(rng.integers(0, n, ki),
                                 rng.integers(0, n, ki))),
                    w=rng.uniform(0.1, 2.0, ki),
                    dels=list(zip(rng.integers(0, n, kd),
                                  rng.integers(0, n, kd)))))
                snap = g.snapshot()
                k.update(snap, applied)
                assert_sssp_matches(k, snap, root)


class TestIncrementalPageRank:
    def test_warm_start_within_bound(self):
        g = DynamicGraph(32)
        rng = np.random.default_rng(5)
        g.apply(_batch(ins=list(zip(rng.integers(0, 32, 96),
                                    rng.integers(0, 32, 96)))))
        k = IncrementalPageRank(g.snapshot())
        applied = g.apply(_batch(ins=[(0, 1), (5, 9)],
                                 dels=[(1, 0)]))
        snap = g.snapshot()
        sweeps = k.update(snap, applied)
        cold, cold_sweeps = pagerank(snap)
        assert float(np.abs(k.rank - cold).sum()) <= pagerank_l1_bound()
        assert sweeps <= cold_sweeps
        assert k.rank.sum() == pytest.approx(1.0, abs=1e-9)

    def test_warm_shape_mismatch_rejected(self):
        g = DynamicGraph(4)
        g.apply(_batch(ins=[(0, 1)]))
        with pytest.raises(ValidationError, match="shape"):
            pagerank_warm(g.snapshot(), np.ones(3) / 3)

    def test_warm_from_cold_converges_in_one_sweep_region(self):
        g = DynamicGraph(16)
        rng = np.random.default_rng(3)
        g.apply(_batch(ins=list(zip(rng.integers(0, 16, 48),
                                    rng.integers(0, 16, 48)))))
        snap = g.snapshot()
        cold, _ = pagerank(snap)
        rank, sweeps = pagerank_warm(snap, cold)
        assert sweeps <= 2
        assert float(np.abs(rank - cold).sum()) <= pagerank_l1_bound()

    def test_bound_formula(self):
        assert pagerank_l1_bound(0.85, 6e-8) == pytest.approx(
            2 * 6e-8 * 0.85 / 0.15)


# ----------------------------------------------------------------------
# The parent rule: a held vertex keeps its old parent as a witness, so
# its new parent is the minimum of that and the witnesses it gained
# ----------------------------------------------------------------------
def _path_kernel(kind, arcs, w):
    """A kernel rooted at 0 over ``arcs`` (weights ``w`` for SSSP)."""
    g = DynamicGraph(1 + max(max(e) for e in arcs), weighted=kind == "sssp")
    g.apply(_batch(ins=arcs, w=w if kind == "sssp" else None))
    k = (IncrementalSSSP if kind == "sssp" else IncrementalBFS)(
        g.snapshot(), 0)
    return g, k


def _update(kind, g, k, ins, w):
    """Apply one insert batch, repair, and check against the oracles."""
    applied = g.apply(_batch(ins=ins, w=w if kind == "sssp" else None))
    snap = g.snapshot()
    k.update(snap, applied)
    if kind == "sssp":
        assert_sssp_matches(k, snap, 0)
        assert k.parent.tobytes() == _min_witness_parents(
            snap, 0, k.dist, snap.weights).tobytes()
    else:
        assert_bfs_matches(k, snap, 0)


def _dist(kind, k):
    return k.dist.copy() if kind == "sssp" else k.level.copy()


@pytest.mark.parametrize("kind", ["bfs", "sssp"])
def test_held_vertex_gains_witness_through_inserted_arc(kind):
    # 0 -> 3 -> 4 and 0 -> 1: the new arc 1 -> 4 ties 4's distance
    # from a vertex the batch does not move, so 4 holds and takes 1.
    g, k = _path_kernel(kind, [(0, 3), (3, 4), (0, 1)], [1.0, 1.0, 1.0])
    assert k.parent[4] == 3
    before = _dist(kind, k)
    _update(kind, g, k, ins=[(1, 4)], w=[1.0])
    assert (_dist(kind, k) == before).all() and k.parent[4] == 1


@pytest.mark.parametrize("kind", ["bfs", "sssp"])
def test_held_vertex_gains_witness_through_dropped_vertex(kind):
    # 1 sits three hops out (0 -> 5 -> 6 -> 1) with an arc 1 -> 7; 7
    # is two hops out through 3.  Inserting 0 -> 1 drops 1 to one hop,
    # which ties 7's distance: 7 holds and its parent becomes 1.
    g, k = _path_kernel(kind, [(0, 5), (5, 6), (6, 1), (1, 7), (0, 3),
                               (3, 7)], [1.0] * 6)
    assert k.parent[7] == 3
    before = _dist(kind, k)
    _update(kind, g, k, ins=[(0, 1)], w=[1.0])
    assert _dist(kind, k)[1] < before[1]
    assert _dist(kind, k)[7] == before[7] and k.parent[7] == 1


@pytest.mark.parametrize("via", ["overwrite", "new arc"])
def test_held_vertex_keeps_a_parent_whose_distance_dropped(via):
    # fl(d + 2**53) absorbs d's drop: 1 gets closer, 2 does not move,
    # and 1 still supports 2.  Overwriting 0 -> 1 cuts and re-settles
    # 1's subtree; the new arc 0 -> 3 -> 1 drops 1 with 2 held.
    g, k = _path_kernel("sssp", [(0, 1), (1, 2), (0, 3)],
                        [1.0, 2.0 ** 53, 0.25])
    d2 = k.dist[2]
    ins = [(0, 1)] if via == "overwrite" else [(3, 1)]
    _update("sssp", g, k, ins=ins, w=[0.5] if via == "overwrite" else [0.25])
    assert k.dist[1] == 0.5 and k.dist[2] == d2 and k.parent[2] == 1


@pytest.mark.parametrize("kind", ["bfs", "sssp"])
def test_non_improving_insert_into_hub_skips_its_in_arcs(kind, monkeypatch):
    # A hub with 200 in-arcs gains a 201st that improves nothing: the
    # repair must not rescan the hub's in-arcs to settle its parent.
    hub = 200
    arcs = [(0, v) for v in range(1, hub)] + [(v, hub) for v in range(hub)]
    arcs.append((0, hub + 1))
    g, k = _path_kernel(kind, arcs, [1.0] * len(arcs))
    gathered = []
    real = incremental.gather_slots

    def counting(row_ptr, frontier, scratch):
        gs = real(row_ptr, frontier, scratch)
        gathered.append(gs.total)
        return gs

    monkeypatch.setattr(incremental, "gather_slots", counting)
    _update(kind, g, k, ins=[(hub + 1, hub)], w=[1.0])
    assert k.parent[hub] == 0
    assert sum(gathered) < hub


@pytest.mark.parametrize("kind", ["bfs", "sssp"])
def test_deletion_heavy_batch_repairs_by_a_pulled_round(kind, monkeypatch):
    # Deleting the root's only short way into vertex 1 orphans 1 and the
    # fan of 60 vertices below it.  Re-seeded through the backup path
    # 0 -> 2 -> 1, vertex 1 alone owns most of the graph's arcs, so the
    # next repair round pulls over the transpose (and writes what the
    # push would have).
    fan = range(3, 63)
    arcs = ([(0, 1), (0, 2), (2, 1)] + [(1, v) for v in fan]
            + [(v, v + 1) for v in fan[:-1]] + [(v, 2) for v in fan[::7]])
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 2.0, len(arcs)).tolist()
    g, k = _path_kernel(kind, arcs, w)
    pulled = []
    real = incremental.relax_round

    def recording(out, inn, members, *args, **kwargs):
        pulled.append(pulls(out, out_arc_count(out.row_ptr, members)))
        return real(out, inn, members, *args, **kwargs)

    monkeypatch.setattr(incremental, "relax_round", recording)
    applied = g.apply(_batch(dels=[(0, 1)]))
    snap = g.snapshot()
    stats = k.update(snap, applied)
    assert stats.n_orphaned == 1 + len(fan) and any(pulled)
    if kind == "sssp":
        assert_sssp_matches(k, snap, 0)
        assert k.parent.tobytes() == _min_witness_parents(
            snap, 0, k.dist, snap.weights).tobytes()
    else:
        assert_bfs_matches(k, snap, 0)


# ----------------------------------------------------------------------
# The loop the frontier rounds replaced, as the oracle
# ----------------------------------------------------------------------
#: Unreached sentinel for integer levels.  ``2**62`` and not
#: ``iinfo.max``: relaxation computes ``level + 1``, which must not wrap.
INF_LEVEL = np.int64(1) << 62


def _unreached(dist):
    return np.inf if dist.dtype.kind == "f" else INF_LEVEL


def _heap_repair(graph, applied, root, dist, parent, lengths, ins_lengths):
    """Distances and ``RepairStats`` of one repair as commit 7352591 ran
    it: cut detection, orphaning, the ``offer`` closure on
    ``np.minimum.at`` + ``np.unique`` and the lazy-deletion heap loop
    settling one vertex per pop.  ``lengths`` / ``ins_lengths`` hold a
    length per arc of ``graph`` / per inserted arc: the weights, or
    ones for BFS (whose bucket queue popped a whole level at a time,
    which settles the same vertices).  ``dist`` marks unreached with
    ``inf`` or ``INF_LEVEL`` and is not modified."""
    dist = dist.copy()
    unreached = _unreached(dist)
    row_ptr, col_idx, src = graph.row_ptr, graph.col_idx, graph.source_ids()
    rd = applied.removed_dst
    cut = np.unique(rd[(parent[rd] == applied.removed_src) & (rd != root)])
    orphans, stack = set(), cut.tolist()
    while stack:
        v = stack.pop()
        orphans.add(v)
        stack.extend(u for u in col_idx[row_ptr[v]:row_ptr[v + 1]].tolist()
                     if parent[u] == v and u not in orphans)
    orphans = np.array(sorted(orphans), dtype=np.int64)
    dist[orphans] = unreached

    heap = []

    def offer(vs, cand):
        ok = cand < dist[vs]
        if not ok.any():
            return
        vs, cand = vs[ok], cand[ok]
        np.minimum.at(dist, vs, cand)
        for v in np.unique(vs):
            heapq.heappush(heap, (dist[v].item(), int(v)))

    for o in orphans:
        arcs = np.flatnonzero(col_idx == o)
        if arcs.size:
            offer(np.array([o]),
                  np.array([(dist[src[arcs]] + lengths[arcs]).min()]))
    offer(applied.inserted_dst, dist[applied.inserted_src] + ins_lengths)

    n_resettled = 0
    while heap:
        d, v = heapq.heappop(heap)
        if d != dist[v]:
            continue                # stale entry (improved since push)
        n_resettled += 1
        s, e = row_ptr[v], row_ptr[v + 1]
        if e > s:
            offer(col_idx[s:e], d + lengths[s:e])
    return dist, RepairStats(int(cut.size), int(orphans.size), n_resettled)


def _min_witness_parents(graph, root, dist, lengths):
    """``parent[v]`` = lowest ``u`` with ``dist[u] + len(u, v) ==
    dist[v]``, by walking every arc."""
    parent = np.full(graph.n_vertices, -1, dtype=np.int64)
    reached = dist < _unreached(dist)
    src, dst = graph.source_ids(), graph.col_idx
    ok = reached[src] & (dist[src] + lengths == dist[dst])
    # Sources ascend in CSR order: written backwards, the lowest stays.
    parent[dst[ok][::-1]] = src[ok][::-1]
    parent[root] = root
    return parent


#: Dyadic, so path sums are exact and several arcs tie as supporters.
TIED_WEIGHTS = (0.0, 0.25, 0.5, 1.0, 1.75)


def _weight(rnd, u, v):
    """Tied or rounded; zero only from a lower to a higher id, which
    keeps every cycle positive (see
    ``test_zero_weight_cycle_hides_a_cut`` for why that matters)."""
    w = rnd.choice(TIED_WEIGHTS + (rnd.uniform(0.1, 2.0),))
    return w if w > 0 or u < v else 0.5


def _resolve(kind, ins, dels, g, root):
    """One drawn step against the live arc set: ``(ins, dels)``."""
    src, dst, _ = g.arcs()
    if kind == "insert":
        return ins, []
    if kind == "delete":
        return [], dels
    if kind == "reweight":          # pure updates of arcs that exist
        m = src.size
        picks = sorted({(a * g.n + b) % m for a, b in ins}) if m else []
        return [(int(src[i]), int(dst[i])) for i in picks], []
    if kind == "isolate":           # every arc at the root goes
        at_root = (src == root) | (dst == root)
        return [], list(zip(src[at_root].tolist(), dst[at_root].tolist()))
    return ins, dels


@st.composite
def mutation_chains(draw, max_n=20):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m0 = draw(st.integers(min_value=1, max_value=3 * n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    base = draw(st.lists(pairs, min_size=m0, max_size=m0))
    kinds = st.sampled_from(["mixed", "mixed", "insert", "delete",
                             "reweight", "isolate"])
    steps = draw(st.lists(
        st.tuples(kinds, st.lists(pairs, max_size=6),
                  st.lists(pairs, max_size=6)),
        min_size=1, max_size=4))
    root = draw(st.integers(0, n - 1))
    return n, base, steps, root


@given(mutation_chains())
@settings(max_examples=60, deadline=None)
def test_bfs_repair_bit_identical_hypothesis(case):
    n, base, steps, root = case
    g = DynamicGraph(n)
    g.apply(_batch(ins=base))
    k = IncrementalBFS(g.snapshot(), root)
    for step in steps:
        ins, dels = _resolve(*step, g, root)
        applied = g.apply(_batch(ins=ins, dels=dels))
        snap = g.snapshot()
        want_dist, want_stats = _heap_repair(
            snap, applied, root, np.where(k.level >= 0, k.level, INF_LEVEL),
            k.parent, np.ones(snap.n_edges, dtype=np.int64), 1)
        stats = k.update(snap, applied)
        assert_bfs_matches(k, snap, root)
        assert stats == want_stats
        want_level = np.where(want_dist < INF_LEVEL, want_dist, -1)
        assert k.level.tobytes() == want_level.tobytes()
        assert k.parent.tobytes() == _min_witness_parents(
            snap, root, want_dist, 1).tobytes()


@given(mutation_chains(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_sssp_repair_bit_identical_hypothesis(case, rnd):
    n, base, steps, root = case
    g = DynamicGraph(n, weighted=True)
    g.apply(_batch(ins=base, w=[_weight(rnd, *e) for e in base]))
    k = IncrementalSSSP(g.snapshot(), root)
    for step in steps:
        ins, dels = _resolve(*step, g, root)
        applied = g.apply(_batch(
            ins=ins, w=[_weight(rnd, *e) for e in ins], dels=dels))
        snap = g.snapshot()
        want_dist, want_stats = _heap_repair(
            snap, applied, root, k.dist, k.parent, snap.weights,
            applied.inserted_weights)
        stats = k.update(snap, applied)
        assert_sssp_matches(k, snap, root)
        assert stats == want_stats
        assert k.dist.tobytes() == want_dist.tobytes()
        assert k.parent.tobytes() == _min_witness_parents(
            snap, root, want_dist, snap.weights).tobytes()


# ----------------------------------------------------------------------
# One arena: a symmetrized stream's snapshot is its own transpose
# ----------------------------------------------------------------------
def _unmarked(snap):
    """The snapshot's arrays, unmarked: its transpose is computed, and
    scratch is kept per CSR, so the repair runs on two arenas."""
    return CSRGraph(snap.row_ptr, snap.col_idx, snap.weights)


@given(mutation_chains(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_shared_arena_repair_matches_computed_transpose(case, rnd):
    # Positive weights only: symmetrized, a zero-weight arc would close
    # a flat cycle with its mirror (test_zero_weight_cycle_hides_a_cut).
    n, base, steps, root = case

    def weights(arcs):
        return [rnd.choice(TIED_WEIGHTS[1:] + (rnd.uniform(0.1, 2.0),))
                for _ in arcs]

    g = DynamicGraph(n, weighted=True)
    g.apply(_batch(ins=base, w=weights(base)).symmetrized())
    snap = g.snapshot()
    pairs = [(cls(snap, root), cls(_unmarked(snap), root))
             for cls in (IncrementalBFS, IncrementalSSSP)]
    for step in steps:
        ins, dels = _resolve(*step, g, root)
        applied = g.apply(_batch(ins=ins, w=weights(ins),
                                 dels=dels).symmetrized())
        snap = g.snapshot()
        plain = _unmarked(snap)
        assert snap.transposed() is snap
        assert plain.transposed() is not plain
        for shared, split in pairs:
            assert shared.update(snap, applied) == split.update(plain,
                                                                applied)
            assert shared.parent.tobytes() == split.parent.tobytes()
        bfs, sssp = (shared for shared, _ in pairs)
        assert bfs.level.tobytes() == pairs[0][1].level.tobytes()
        assert sssp.dist.tobytes() == pairs[1][1].dist.tobytes()
        assert_bfs_matches(bfs, snap, root)
        assert_sssp_matches(sssp, snap, root)
