"""Frontier-kernel gate: byte-identity always, >=2x on the hot loop.

The shared frontier library (:mod:`repro.graph.frontier`) replaced the
per-system slot-expansion / lexsort-dedup / ``minimum.at``+``unique``
idioms.  Its contract has two halves, both enforced here on every
benchmark run:

* **Byte-identity.**  This file embeds the *pre-library* kernels
  verbatim (top-down/bottom-up dobfs, delta-stepping, Graph500 bitmap
  BFS, GraphBIG queue BFS / Bellman-Ford, the full-gather GAS engine,
  reference BFS/CDLP/Dijkstra-dedup) and asserts that parent / level /
  dist / label arrays, WorkProfile round vectors, and stats dicts match
  the library-backed kernels *exactly* -- ``array_equal`` on every
  array, never a tolerance.  The two-sided primitive is compared with
  itself too: ``relax_round``'s push and pull, round by round over a
  whole Bellman-Ford, GAS SSSP and GraphMat SSSP, and over a whole
  hop-count relaxation with every arc adding 1 (the streaming BFS
  repair's round).
* **Speedup.**  The gathered-edge hot loop (always-top-down BFS over a
  symmetrized Kronecker graph at scale >= 16) must run at least
  ``SPEEDUP_FLOOR``x faster than the old idiom, and the relaxation
  scatter (``minimum.at`` + ``unique``) at least as much.

Artifacts: ``bench_results/kernels_gate.txt`` (human-readable) and
``bench_results/BENCH_kernels.json`` (machine-readable, consumed by the
CI ``kernel-smoke`` job).
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import numpy as np
from conftest import BENCH_SCALE, write_artifact

import repro.algorithms.sssp as sssp_module
import repro.systems.graphmat.kernels as graphmat_kernels
import repro.systems.powergraph.gas as gas_module
from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.graph import frontier as frontier_lib
from repro.graph.csr import CSRGraph
from repro.graph.frontier import segment_min_scatter
from repro.graph.scratch import KernelScratch
from repro.machine.threads import WorkProfile
from repro.systems.gap.bfs import dobfs
from repro.systems.gap.graph import GapGraph, build_gap_graph
from repro.systems.gap.sssp import delta_stepping
from repro.systems.graph500.bfs import bfs_bitmap
from repro.systems.graphbig.kernels import (PROPERTY_ACCESS_COST,
                                            bfs_queue, sssp_bellman_ford)
from repro.systems.powergraph.gas import GasEngine
from repro.systems.powergraph.programs import run_sssp
from repro.systems.powergraph.system import random_ingress

SPEEDUP_FLOOR = 2.0
#: The ISSUE floor applies at Kronecker scale 16+.
HOT_SCALE = 16
HOT_ROOTS = 3
#: Best-of-k timing on both sides, against scheduler noise.
TIMING_REPS = 3
IDENTITY_ROOTS = 4


# ======================================================================
# Verbatim pre-library kernels (the idioms the frontier module replaced)
# ======================================================================


def _ref_expand(csr, frontier):
    starts = csr.row_ptr[frontier]
    counts = csr.row_ptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64), 0)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slots = np.repeat(starts - offsets, counts) + np.arange(total)
    return csr.col_idx[slots], np.repeat(frontier, counts), slots, total


def _ref_top_down_step(graph, frontier, parent):
    out = graph.out
    nbrs, srcs, _, total = _ref_expand(out, frontier)
    if total == 0:
        return np.empty(0, dtype=np.int64), 0
    fresh = parent[nbrs] == -1
    nbrs = nbrs[fresh]
    srcs = srcs[fresh]
    if nbrs.size == 0:
        return np.empty(0, dtype=np.int64), total
    order = np.lexsort((srcs, nbrs))
    nbrs_s = nbrs[order]
    srcs_s = srcs[order]
    first = np.ones(nbrs_s.size, dtype=bool)
    first[1:] = nbrs_s[1:] != nbrs_s[:-1]
    new_v = nbrs_s[first]
    parent[new_v] = srcs_s[first]
    return new_v, total


def _ref_bottom_up_step(graph, in_frontier, parent):
    inn = graph.inn
    cand = np.flatnonzero(parent == -1)
    if cand.size == 0:
        return np.empty(0, dtype=np.int64), 0
    starts = inn.row_ptr[cand]
    ends = inn.row_ptr[cand + 1]
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), 0
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slots = np.repeat(starts - offsets, counts) + np.arange(total)
    hits = in_frontier[inn.col_idx[slots]]
    hit_pos = np.flatnonzero(hits)
    if hit_pos.size == 0:
        return np.empty(0, dtype=np.int64), total
    seg_end = np.cumsum(counts)
    seg_start = seg_end - counts
    first_idx = np.searchsorted(hit_pos, seg_start)
    has_hit = (first_idx < hit_pos.size)
    first_hit = np.where(
        has_hit, hit_pos[np.minimum(first_idx, hit_pos.size - 1)], -1)
    found = has_hit & (first_hit < seg_end)
    new_v = cand[found]
    parent[new_v] = inn.col_idx[slots[first_hit[found]]]
    examined = np.where(found, first_hit - seg_start + 1, counts)
    return new_v, int(examined.sum())


def _ref_dobfs(graph, root, alpha=15.0, beta=18.0):
    n = graph.n
    out_deg = graph.out_degree()
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    profile = WorkProfile()
    edges_unexplored = int(out_deg.sum()) - int(out_deg[root])
    depth = 0
    steps = []
    bottom_up = False
    max_deg = float(out_deg.max()) if n else 0.0
    while frontier.size:
        depth += 1
        edges_front = int(out_deg[frontier].sum())
        if not bottom_up and edges_front * alpha > max(edges_unexplored, 1):
            bottom_up = True
        elif bottom_up and frontier.size * beta < n:
            bottom_up = False
        if bottom_up:
            mask = np.zeros(n, dtype=bool)
            mask[frontier] = True
            new_v, examined = _ref_bottom_up_step(graph, mask, parent)
            steps.append("bu")
        else:
            new_v, examined = _ref_top_down_step(graph, frontier, parent)
            steps.append("td")
        skew = min(max_deg / max(examined, 1.0), 0.15)
        profile.add_round(units=examined + frontier.size,
                          memory_bytes=12.0 * examined, skew=skew)
        level[new_v] = depth
        edges_unexplored -= int(out_deg[new_v].sum())
        frontier = new_v
    stats = {"depth": depth, "steps": "".join(
        "B" if s == "bu" else "T" for s in steps)}
    return parent, level, profile, stats


def _ref_relax(out, frontier, dist, light_mask):
    starts = out.row_ptr[frontier]
    counts = out.row_ptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), 0
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slots = np.repeat(starts - offsets, counts) + np.arange(total)
    srcs = np.repeat(frontier, counts)
    if light_mask is not None:
        keep = light_mask[slots]
        slots = slots[keep]
        srcs = srcs[keep]
        if slots.size == 0:
            return np.empty(0, dtype=np.int64), total
    dsts = out.col_idx[slots]
    cand = dist[srcs] + out.weights[slots]
    better = cand < dist[dsts]
    dsts_b = dsts[better]
    cand_b = cand[better]
    if dsts_b.size == 0:
        return np.empty(0, dtype=np.int64), total
    np.minimum.at(dist, dsts_b, cand_b)
    return np.unique(dsts_b), total


def _ref_delta_stepping(graph, root, delta=0.25):
    out = graph.out
    n = graph.n
    dist = np.full(n, np.inf)
    dist[root] = 0.0
    light = out.weights < delta
    profile = WorkProfile()
    max_deg = float(out.out_degrees().max()) if n else 0.0
    bucket = np.full(n, -1, dtype=np.int64)
    bucket[root] = 0
    relaxations = 0
    phases = 0
    current = 0
    while True:
        members = np.flatnonzero(bucket == current)
        if members.size == 0:
            ahead = bucket[bucket > current]
            if ahead.size == 0:
                break
            current = int(ahead.min())
            continue
        settled_this_bucket = []
        while members.size:
            phases += 1
            improved, examined = _ref_relax(out, members, dist, light)
            relaxations += examined
            skew = min(max_deg / max(examined, 1.0), 0.15)
            profile.add_round(units=examined + members.size,
                              memory_bytes=20.0 * examined, skew=skew)
            settled_this_bucket.append(members)
            bucket[members] = -2
            if improved.size:
                new_bucket = np.minimum(
                    (dist[improved] / delta).astype(np.int64),
                    np.iinfo(np.int64).max)
                stay = new_bucket == current
                bucket[improved] = new_bucket
                members = improved[stay]
            else:
                members = np.empty(0, dtype=np.int64)
        settled = np.unique(np.concatenate(settled_this_bucket))
        phases += 1
        improved, examined = _ref_relax(out, settled, dist, ~light)
        relaxations += examined
        skew = min(max_deg / max(examined, 1.0), 0.15)
        profile.add_round(units=examined + settled.size,
                          memory_bytes=20.0 * examined, skew=skew)
        if improved.size:
            nb = (dist[improved] / delta).astype(np.int64)
            bucket[improved] = np.maximum(nb, current + 1)
        current += 1
    stats = {"phases": phases, "relaxations": relaxations, "delta": delta}
    return dist, profile, stats


def _ref_bfs_bitmap(csr, root):
    n = csr.n_vertices
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    parent[root] = root
    level[root] = 0
    visited[root] = True
    frontier = np.array([root], dtype=np.int64)
    profile = WorkProfile()
    deg = csr.out_degrees()
    max_deg = float(deg.max()) if n else 0.0
    depth = 0
    examined_total = 0
    while frontier.size:
        depth += 1
        nbrs, srcs, _, total = _ref_expand(csr, frontier)
        if total == 0:
            break
        fresh = ~visited[nbrs]
        nbrs = nbrs[fresh]
        srcs = srcs[fresh]
        examined_total += total
        skew = min(max_deg / max(total, 1.0), 1.0)
        profile.add_round(units=total + frontier.size,
                          memory_bytes=9.0 * total, skew=skew)
        if nbrs.size == 0:
            break
        order = np.lexsort((srcs, nbrs))
        nbrs_s = nbrs[order]
        srcs_s = srcs[order]
        first = np.ones(nbrs_s.size, dtype=bool)
        first[1:] = nbrs_s[1:] != nbrs_s[:-1]
        new_v = nbrs_s[first]
        parent[new_v] = srcs_s[first]
        visited[new_v] = True
        level[new_v] = depth
        frontier = new_v
    return parent, level, profile, {"depth": depth,
                                    "edges_examined": examined_total}


def _ref_bfs_queue(pg, root):
    csr = pg.out
    n = pg.n
    level = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    level[root] = 0
    parent[root] = root
    frontier = np.array([root], dtype=np.int64)
    profile = WorkProfile()
    deg = csr.out_degrees()
    max_deg = float(deg.max()) if n else 0.0
    depth = 0
    while frontier.size:
        depth += 1
        nbrs, srcs, _, total = _ref_expand(csr, frontier)
        profile.add_round(
            units=total + PROPERTY_ACCESS_COST * frontier.size,
            memory_bytes=32.0 * total,
            skew=min(max_deg / max(total, 1.0), 1.0))
        if total == 0:
            break
        fresh = level[nbrs] == -1
        nbrs, srcs = nbrs[fresh], srcs[fresh]
        if nbrs.size == 0:
            break
        order = np.lexsort((srcs, nbrs))
        nbrs_s, srcs_s = nbrs[order], srcs[order]
        first = np.ones(nbrs_s.size, dtype=bool)
        first[1:] = nbrs_s[1:] != nbrs_s[:-1]
        new_v = nbrs_s[first]
        level[new_v] = depth
        parent[new_v] = srcs_s[first]
        frontier = new_v
    return parent, level, profile, {"depth": depth}


def _ref_sssp_bellman_ford(pg, root):
    csr = pg.out
    n = pg.n
    dist = np.full(n, np.inf)
    dist[root] = 0.0
    active = np.array([root], dtype=np.int64)
    profile = WorkProfile()
    deg = csr.out_degrees()
    max_deg = float(deg.max()) if n else 0.0
    supersteps = 0
    relaxations = 0
    while active.size:
        supersteps += 1
        nbrs, srcs, slots, total = _ref_expand(csr, active)
        relaxations += total
        profile.add_round(
            units=total + PROPERTY_ACCESS_COST * active.size,
            memory_bytes=28.0 * total,
            skew=min(max_deg / max(total, 1.0), 1.0))
        if total == 0:
            break
        cand = dist[srcs] + csr.weights[slots]
        better = cand < dist[nbrs]
        if not better.any():
            break
        targets = nbrs[better]
        np.minimum.at(dist, targets, cand[better])
        active = np.unique(targets)
    return dist, profile, {"supersteps": supersteps,
                           "relaxations": relaxations}


class _RefGasEngine(GasEngine):
    """The pre-library engine: a full gather over the in-edges of every
    signalled vertex each superstep and a second out-edge expansion for
    the signals, where :class:`GasEngine` now reads an accumulator
    cache.  Runs the pre-library per-edge programs (``gather(state,
    srcs, dsts, weights)``)."""

    def _gather_phase(self, program, state, targets):
        inn = self.inn
        starts = inn.row_ptr[targets]
        counts = inn.row_ptr[targets + 1] - starts
        total = int(counts.sum())
        gathered = np.full(targets.size, program.identity, dtype=np.float64)
        if total == 0:
            return gathered, 0
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        slots = np.repeat(starts - offsets, counts) + np.arange(total)
        srcs = inn.col_idx[slots]
        dst_rep = np.repeat(targets, counts)
        w = inn.weights[slots] if inn.weights is not None else None
        contributions = program.gather(state, srcs, dst_rep, w)
        idx = np.repeat(np.arange(targets.size), counts)
        np.minimum.at(gathered, idx, contributions)
        return gathered, total

    def _signaled(self, active):
        frontier = np.flatnonzero(active)
        out = self.out
        starts = out.row_ptr[frontier]
        counts = out.row_ptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        slots = np.repeat(starts - offsets, counts) + np.arange(total)
        return np.unique(out.col_idx[slots])

    def run(self, program, initial, initially_active,
            max_supersteps=10_000):
        n = self.inn.n_vertices
        state = SimpleNamespace(data=initial.copy(),
                                active=initially_active.copy(),
                                superstep=0)
        profile = WorkProfile()
        rep = max(self.replication_factor, 1.0)
        out_deg = self.out.out_degrees()
        max_deg = float(out_deg.max()) if n else 0.0
        gathered_edges = 0
        scattered_edges = 0
        while state.active.any() and state.superstep < max_supersteps:
            state.superstep += 1
            if state.superstep == 1:
                targets = np.flatnonzero(state.active)
            else:
                targets = self._signaled(state.active)
            if targets.size == 0:
                break
            gathered, g_edges = self._gather_phase(program, state, targets)
            gathered_edges += g_edges
            old_vals = state.data[targets].copy()
            new_vals = program.apply(state, targets, gathered)
            changed_mask = np.abs(new_vals - old_vals) > program.tolerance
            state.data[targets] = new_vals
            if state.superstep == 1:
                changed = targets
            else:
                changed = targets[changed_mask]
            s_edges = int(out_deg[changed].sum())
            scattered_edges += s_edges
            mirror_units = rep * targets.size
            units = g_edges + s_edges + targets.size + mirror_units
            profile.add_round(
                units=units,
                memory_bytes=24.0 * (g_edges + s_edges) + 16.0 * mirror_units,
                skew=min(max_deg / max(units, 1.0), 1.0))
            nxt = np.zeros(n, dtype=bool)
            nxt[changed] = True
            state.active = nxt
        stats = {
            "supersteps": state.superstep,
            "gathered_edges": gathered_edges,
            "scattered_edges": scattered_edges,
            "replication_factor": self.replication_factor,
        }
        return state.data, state.superstep, profile, stats


def _ref_run_sssp(engine, root):
    n = engine.inn.n_vertices
    dist = np.full(n, np.inf)
    dist[root] = 0.0
    active = np.zeros(n, dtype=bool)
    active[root] = True
    program = SimpleNamespace(
        gather=lambda state, srcs, dsts, weights: state.data[srcs] + weights,
        apply=lambda state, vertices, gathered: np.minimum(
            state.data[vertices], gathered),
        tolerance=0.0, identity=np.inf)
    return engine.run(program, dist, active)


# ======================================================================
# Gate helpers
# ======================================================================


def _profiles_equal(a: WorkProfile, b: WorkProfile) -> bool:
    aa, bb = a.to_arrays(), b.to_arrays()
    return all(np.array_equal(aa[k], bb[k]) for k in aa)


def _assert_identical(label, got, want, checks):
    g_arrays, g_profile, g_stats = got
    w_arrays, w_profile, w_stats = want
    for ga, wa in zip(g_arrays, w_arrays):
        assert np.array_equal(ga, wa), f"{label}: output array diverged"
    assert _profiles_equal(g_profile, w_profile), \
        f"{label}: WorkProfile diverged"
    assert g_stats == w_stats, f"{label}: stats diverged"
    checks.append(label)


def _assert_hop_sides_identical(csr, root, checks):
    """Both sides of ``relax_round`` with every arc adding 1, every
    round of a hop-count relaxation from ``root`` to its fixed point."""
    scratch = KernelScratch(csr.n_vertices, csr.n_edges)
    dist = np.full(csr.n_vertices, np.inf)
    dist[root] = 0.0
    active = np.array([root], dtype=np.int64)
    pulls = []
    relax = _relax_both_sides(pulls)
    while active.size:
        active, _ = relax(csr, csr, active, dist, dist, scratch, adds=1.0)
    checks.append(f"hop count adds=1 push|pull[{root}] "
                  f"x{len(pulls)} ({sum(pulls)} pull)")


def _relax_both_sides(rounds):
    """A stand-in for ``relax_round`` that runs each call down the push
    and the pull side on copies of its state, asserts they wrote the
    same bytes and returned the same ids, then runs it for real."""
    def relax(out, inn, members, values, dist, scratch, adds=None,
              touched=None):
        runs = []
        saved = frontier_lib.PULL_SHARE
        try:
            for share in (2.0, 0.0):     # push, then pull
                frontier_lib.PULL_SHARE = share
                d = dist.copy()
                t = None if touched is None else touched.copy()
                ids, examined = frontier_lib.relax_round(
                    out, inn, members, d if values is dist else values, d,
                    scratch, adds, t)
                runs.append((d.tobytes(), ids.tobytes(), examined,
                             None if t is None else t.tobytes()))
        finally:
            frontier_lib.PULL_SHARE = saved
        assert runs[0] == runs[1], "relax_round: push and pull diverged"
        rounds.append(runs[0][2] >= frontier_lib.PULL_SHARE * out.n_edges)
        return frontier_lib.relax_round(out, inn, members, values, dist,
                                        scratch, adds, touched)
    return relax


def _assert_relax_sides_identical(label, module, kernel, checks):
    """Every round of ``kernel()`` -- which returns ``(dist,
    WorkProfile)`` -- down both sides of ``relax_round`` (looked up in
    ``module``), then the whole run against an unpatched one."""
    pulls = []
    module.relax_round = _relax_both_sides(pulls)
    try:
        got_dist, got_profile = kernel()
    finally:
        module.relax_round = frontier_lib.relax_round
    want_dist, want_profile = kernel()
    assert got_dist.tobytes() == want_dist.tobytes(), label
    assert _profiles_equal(got_profile, want_profile), label
    checks.append(f"{label} x{len(pulls)} ({sum(pulls)} pull)")


def _bench_graph(scale, weighted):
    el = generate_kronecker(KroneckerSpec(scale=scale, weighted=weighted))
    return el


def test_kernel_gate(benchmark):
    checks = []

    # ------------------------------------------------------------------
    # 1. Byte-identity at bench scale, several roots.
    # ------------------------------------------------------------------
    el = _bench_graph(BENCH_SCALE, weighted=True)
    gap, _ = build_gap_graph(el, directed=False)
    rng = np.random.default_rng(0)
    roots = rng.integers(0, gap.n, IDENTITY_ROOTS)

    for root in roots:
        root = int(root)
        p, l, prof, st = dobfs(gap, root)
        rp, rl, rprof, rst = _ref_dobfs(gap, root)
        _assert_identical(f"gap/dobfs[{root}]",
                          ((p, l), prof, st), ((rp, rl), rprof, rst),
                          checks)
        d, prof, st = delta_stepping(gap, root)
        rd, rprof, rst = _ref_delta_stepping(gap, root)
        _assert_identical(f"gap/delta_stepping[{root}]",
                          ((d,), prof, st), ((rd,), rprof, rst), checks)

    csr = gap.out
    pg = SimpleNamespace(out=csr, n=gap.n)
    for root in roots:
        root = int(root)
        got = bfs_bitmap(csr, root)
        ref = _ref_bfs_bitmap(csr, root)
        _assert_identical(f"graph500/bfs_bitmap[{root}]",
                          (got[:2], got[2], got[3]),
                          (ref[:2], ref[2], ref[3]), checks)
        got = bfs_queue(pg, root)
        ref = _ref_bfs_queue(pg, root)
        _assert_identical(f"graphbig/bfs_queue[{root}]",
                          (got[:2], got[2], got[3]),
                          (ref[:2], ref[2], ref[3]), checks)
        gd, gprof, gst = sssp_bellman_ford(pg, root)
        rd, rprof, rst = _ref_sssp_bellman_ford(pg, root)
        _assert_identical(f"graphbig/bellman_ford[{root}]",
                          ((gd,), gprof, gst), ((rd,), rprof, rst),
                          checks)

    # PowerGraph: GAS SSSP through the accumulator cache vs the
    # pre-library full-gather engine.
    sym = el.symmetrized()
    out = CSRGraph.from_arrays(sym.src, sym.dst, sym.n_vertices,
                               weights=sym.weights, symmetric=True)
    inn = CSRGraph.from_arrays(sym.dst, sym.src, sym.n_vertices,
                               weights=sym.weights, symmetric=True)
    rep, _ = random_ingress(sym.src, sym.dst, sym.n_vertices, 4)
    root = int(roots[0])
    engine = GasEngine(out, rep)
    ref_engine = _RefGasEngine(out, rep)
    gd, git, gprof, gst = run_sssp(engine, root)
    rd, rit, rprof, rst = _ref_run_sssp(ref_engine, root)
    assert git == rit
    _assert_identical(f"powergraph/gas_sssp[{root}]",
                      ((gd,), gprof, gst), ((rd,), rprof, rst), checks)

    # The relaxation primitive with every arc adding 1: push and pull,
    # every round of a hop count over the same graph.
    _assert_hop_sides_identical(out, root, checks)

    # The relaxation primitive: push and pull, every round of a whole
    # Bellman-Ford, GAS SSSP and GraphMat SSSP over the same graph.
    bf_graph = SimpleNamespace(out=out, n=out.n_vertices)
    # GraphBIG and GraphMat relax through the one Bellman-Ford loop.
    _assert_relax_sides_identical(
        f"graphbig/bellman_ford push|pull[{root}]", sssp_module,
        lambda: sssp_bellman_ford(bf_graph, root)[:2],
        checks)
    _assert_relax_sides_identical(
        f"powergraph/gas_sssp push|pull[{root}]", gas_module,
        lambda: run_sssp(engine, root)[::2], checks)
    _assert_relax_sides_identical(
        f"graphmat/sssp_spmv push|pull[{root}]", sssp_module,
        lambda: graphmat_kernels.sssp_bellman_spmv(inn, root)[:2],
        checks)

    # ------------------------------------------------------------------
    # 2. Hot-loop speedup at scale >= 16 (plus identity re-check there).
    # ------------------------------------------------------------------
    hot_el = _bench_graph(HOT_SCALE, weighted=False)
    hot = CSRGraph.from_edge_list(hot_el, symmetrize=True)
    # Top-degree roots: deterministic, inside the giant component, and
    # each search sweeps essentially every arc (random roots on a
    # Kronecker graph often land on isolated vertices).
    hot_roots = [int(r) for r in
                 np.argsort(hot.out_degrees())[-HOT_ROOTS:]]

    # Warm both paths (sizes the scratch arena, faults the pages in).
    bfs_bitmap(hot, hot_roots[0])
    _ref_bfs_bitmap(hot, hot_roots[0])

    old_times, new_times = [], []
    ref_runs = new_runs = None
    for _ in range(TIMING_REPS):
        t0 = time.perf_counter()
        ref_runs = [_ref_bfs_bitmap(hot, r) for r in hot_roots]
        old_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        new_runs = [bfs_bitmap(hot, r) for r in hot_roots]
        new_times.append(time.perf_counter() - t0)
    old_s, new_s = min(old_times), min(new_times)
    benchmark.pedantic(lambda: [bfs_bitmap(hot, r) for r in hot_roots],
                       rounds=1, iterations=1)

    for r, got, want in zip(hot_roots, new_runs, ref_runs):
        _assert_identical(f"hot/bfs_bitmap[{r}]",
                          (got[:2], got[2], got[3]),
                          (want[:2], want[2], want[3]), checks)
    hot_speedup = old_s / max(new_s, 1e-9)

    # Relaxation scatter: minimum.at + unique vs segment_min_scatter.
    n = hot.n_vertices
    m = 2_000_000
    rng = np.random.default_rng(2)
    dsts = rng.integers(0, n, m)
    cand = rng.random(m)
    scratch = KernelScratch(n, m)
    dist_a = np.full(n, np.inf)
    dist_b = np.full(n, np.inf)
    segment_min_scatter(dist_b.copy(), dsts, cand, scratch)  # warm

    t0 = time.perf_counter()
    np.minimum.at(dist_a, dsts, cand)
    want_ids = np.unique(dsts)
    relax_old_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    got_ids = segment_min_scatter(dist_b, dsts, cand, scratch)
    relax_new_s = time.perf_counter() - t0
    assert np.array_equal(got_ids, want_ids)
    assert np.array_equal(dist_a, dist_b)
    relax_speedup = relax_old_s / max(relax_new_s, 1e-9)

    assert hot_speedup >= SPEEDUP_FLOOR, (
        f"hot-loop speedup {hot_speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x gate")

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    payload = {
        "identity_scale": BENCH_SCALE,
        "identity_checks": len(checks),
        "byte_identical": True,
        "hot_scale": HOT_SCALE,
        "hot_roots": HOT_ROOTS,
        "hot_n_vertices": int(hot.n_vertices),
        "hot_n_arcs": int(hot.n_edges),
        "hot_old_s": round(old_s, 4),
        "hot_new_s": round(new_s, 4),
        "hot_speedup": round(hot_speedup, 2),
        "relax_old_s": round(relax_old_s, 4),
        "relax_new_s": round(relax_new_s, 4),
        "relax_speedup": round(relax_speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "push_pull_rounds": [c for c in checks if "push|pull" in c],
    }
    write_artifact("BENCH_kernels.json", json.dumps(payload, indent=2))
    write_artifact("kernels_gate.txt", "\n".join([
        f"identity_checks: {len(checks)} (scale {BENCH_SCALE}, "
        f"{IDENTITY_ROOTS} roots) -- all byte-identical",
        f"hot_loop (top-down BFS, kron scale {HOT_SCALE}, "
        f"{hot.n_edges} arcs): old {old_s:.3f}s new {new_s:.3f}s "
        f"speedup {hot_speedup:.2f}x (floor {SPEEDUP_FLOOR}x)",
        f"relax_scatter (2M edges): old {relax_old_s * 1e3:.1f}ms "
        f"new {relax_new_s * 1e3:.1f}ms speedup {relax_speedup:.2f}x",
        *(f"relax_round {c}: both sides byte-identical every round"
          for c in payload["push_pull_rounds"]),
    ]))
