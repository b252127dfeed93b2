"""Streaming gate: bit-identity always, >=2x repair-vs-recompute.

The differential contract of the incremental kernels
(``docs/streaming.md``), enforced at Kronecker scale ``STREAM_SCALE``
over small mutation batches:

* **Bit-identity.**  After every batch, the repaired BFS parent+level
  and SSSP distance arrays must equal the from-scratch references byte
  for byte (their outputs are mathematically unique; see
  ``repro.algorithms.incremental``).  Warm PageRank must stay within
  the contraction bound of the cold result and never need more sweeps.
* **Speedup.**  Aggregated over the stream, repairing BFS and SSSP
  must beat recomputing by at least ``SPEEDUP_FLOOR``x.  Small batches
  touch small affected regions, so repair is sublinear where recompute
  pays the whole graph every time -- the entire point of the mutation
  log.  PageRank's warm/cold ratio is *recorded* but not gated: the
  warm start saves sweeps, not per-sweep cost, and the saving is
  modest (~1.2-1.6x).
* **Transposition.**  Repair walks incoming adjacency.  A snapshot of
  this (symmetrized) stream is its own transpose, so ``epg stream``
  transposes nothing; a stream fed one unsymmetrized batch transposes
  every fresh snapshot once.  The ``transpose`` row keeps timing that
  pass on an unmarked copy of each snapshot (``_unmemoized``; a marked
  one would make the row free): the linear counting pass of
  ``CSRGraph.transposed()`` against the two-key sort it replaced
  (embedded verbatim below, the ``bench_kernels.py`` pattern), arrays
  byte-identical on every snapshot and at least ``SPEEDUP_FLOOR``x
  faster.  The sort of the snapshot itself must give the snapshot back
  byte for byte, which checks that it is its own transpose.

Artifacts: ``bench_results/stream_gate.txt`` (human-readable) and
``bench_results/BENCH_stream.json`` (machine-readable, consumed by the
CI ``stream-smoke`` job).
"""

from __future__ import annotations

import json
import time

import numpy as np
from conftest import write_artifact

from repro.algorithms.bfs import bfs_parents
from repro.algorithms.incremental import (
    IncrementalBFS,
    IncrementalSSSP,
    pagerank_l1_bound,
    pagerank_warm,
)
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp_dijkstra
from repro.graph.csr import CSRGraph
from repro.streaming import StreamSpec, build_scenario

SPEEDUP_FLOOR = 2.0
#: The ISSUE floor applies at Kronecker scale 14.
STREAM_SCALE = 14
#: Small batches: the regime where repair must win decisively.
N_BATCHES = 6
BATCH_EDGES = 48
#: Best-of-k timing on both sides, against scheduler noise.
TIMING_REPS = 3


def _ref_transposed(graph):
    """``CSRGraph.transposed()`` as it was before the counting pass:
    ``from_arrays`` re-sorts arcs that are already in row order."""
    n = graph.n_vertices
    src = graph.source_ids()
    return CSRGraph.from_arrays(graph.col_idx, src, n,
                                weights=graph.weights)


def _unmemoized(snap):
    """Same arrays, none of ``snap``'s memoized derived structures."""
    return CSRGraph(row_ptr=snap.row_ptr, col_idx=snap.col_idx,
                    weights=snap.weights)


def _best_of(fn, *args):
    times = []
    # Warmup; also builds the snapshot's scratch, so repair timings
    # exclude it.
    fn(*args)
    for _ in range(TIMING_REPS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def test_stream_gate():
    from repro.graph.dynamic import DynamicGraph

    spec = StreamSpec(scale=STREAM_SCALE, n_batches=N_BATCHES,
                      batch_edges=BATCH_EDGES, weighted=True)
    scenario = build_scenario(spec)
    graph = DynamicGraph(scenario.n_vertices, weighted=True)
    graph.apply(scenario.base)
    snap = graph.snapshot()
    root = scenario.root

    bfs = IncrementalBFS(snap, root)
    sssp = IncrementalSSSP(snap, root)
    pr_rank, _ = pagerank(snap)

    per_batch = []
    t_bfs_inc = t_bfs_ref = 0.0
    t_sssp_inc = t_sssp_ref = 0.0
    t_pr_warm = t_pr_cold = 0.0
    t_tr_new = t_tr_old = 0.0
    warm_sweeps_total = cold_sweeps_total = 0

    for i, batch in enumerate(scenario.batches):
        applied = graph.apply(batch)
        snap = graph.snapshot()

        # -- Transpose: what every fresh snapshot pays before repair.
        tn = _best_of(lambda: _unmemoized(snap).transposed())
        to = _best_of(lambda: _ref_transposed(_unmemoized(snap)))
        rev, rev_ref = snap.transposed(), _ref_transposed(snap)
        for name in ("row_ptr", "col_idx", "weights"):
            assert (getattr(rev, name).tobytes()
                    == getattr(rev_ref, name).tobytes()), \
                f"batch[{i}]: transposed {name} diverged"

        # -- BFS: time repair (state restored per rep), then recompute.
        saved = (bfs.parent.copy(), bfs.level.copy())

        def bfs_repair():
            bfs.parent = saved[0].copy()
            bfs.level = saved[1].copy()
            bfs.update(snap, applied)

        bi = _best_of(bfs_repair)
        br = _best_of(bfs_parents, snap, root)
        p_ref, l_ref = bfs_parents(snap, root)
        assert bfs.parent.tobytes() == p_ref.tobytes(), \
            f"batch[{i}]: BFS parents diverged"
        assert bfs.level.tobytes() == l_ref.tobytes(), \
            f"batch[{i}]: BFS levels diverged"

        # -- SSSP: same discipline.
        saved_s = (sssp.dist.copy(), sssp.parent.copy())

        def sssp_repair():
            sssp.dist = saved_s[0].copy()
            sssp.parent = saved_s[1].copy()
            sssp.update(snap, applied)

        si = _best_of(sssp_repair)
        sr = _best_of(sssp_dijkstra, snap, root)
        d_ref = sssp_dijkstra(snap, root)
        assert sssp.dist.tobytes() == d_ref.tobytes(), \
            f"batch[{i}]: SSSP distances diverged"

        # -- PageRank: warm start from the pre-batch vector.
        prev = pr_rank
        pw = _best_of(pagerank_warm, snap, prev)
        pc = _best_of(pagerank, snap)
        pr_rank, warm_sweeps = pagerank_warm(snap, prev)
        cold_rank, cold_sweeps = pagerank(snap)
        l1 = float(np.abs(pr_rank - cold_rank).sum())
        assert l1 <= pagerank_l1_bound(), \
            f"batch[{i}]: warm PageRank {l1:.3e} beyond the bound"
        assert warm_sweeps <= cold_sweeps, \
            f"batch[{i}]: warm start needed more sweeps than cold"

        t_bfs_inc += bi
        t_bfs_ref += br
        t_sssp_inc += si
        t_sssp_ref += sr
        t_pr_warm += pw
        t_pr_cold += pc
        t_tr_new += tn
        t_tr_old += to
        warm_sweeps_total += warm_sweeps
        cold_sweeps_total += cold_sweeps
        per_batch.append({
            "batch": i, "n_new": applied.n_new,
            "n_deleted": applied.n_deleted,
            "bfs_repair_s": bi, "bfs_recompute_s": br,
            "sssp_repair_s": si, "sssp_recompute_s": sr,
            "pr_warm_s": pw, "pr_cold_s": pc,
            "transpose_s": tn, "transpose_sort_s": to,
            "pr_warm_sweeps": warm_sweeps,
            "pr_cold_sweeps": cold_sweeps,
        })

    bfs_speedup = t_bfs_ref / t_bfs_inc
    sssp_speedup = t_sssp_ref / t_sssp_inc
    pr_speedup = t_pr_cold / t_pr_warm
    transpose_speedup = t_tr_old / t_tr_new

    lines = [
        f"stream gate: kron-scale{STREAM_SCALE}, {N_BATCHES} batches "
        f"x {BATCH_EDGES} edges (weighted, root {root})",
        f"bit-identity: BFS + SSSP exact on every batch; PageRank "
        f"within {pagerank_l1_bound():.2e} (L1)",
        "",
        f"{'kernel':<10}{'repair (s)':>12}{'recompute (s)':>15}"
        f"{'speedup':>9}",
        "-" * 46,
        f"{'bfs':<10}{t_bfs_inc:>12.5f}{t_bfs_ref:>15.5f}"
        f"{bfs_speedup:>8.1f}x",
        f"{'sssp':<10}{t_sssp_inc:>12.5f}{t_sssp_ref:>15.5f}"
        f"{sssp_speedup:>8.1f}x",
        f"{'pagerank':<10}{t_pr_warm:>12.5f}{t_pr_cold:>15.5f}"
        f"{pr_speedup:>8.1f}x  (recorded; sweeps "
        f"{warm_sweeps_total} vs {cold_sweeps_total})",
        "",
        f"{'per snapshot':<14}{'counting (s)':>13}{'sort (s)':>10}"
        f"{'speedup':>9}",
        "-" * 46,
        f"{'transpose':<14}{t_tr_new:>13.5f}{t_tr_old:>10.5f}"
        f"{transpose_speedup:>8.1f}x  (arrays byte-identical)",
        "",
        "the transpose row times an unmarked copy of each snapshot: "
        "the symmetrized stream's",
        "own snapshots are their own transpose, so `epg stream` pays "
        "none of it.",
        "",
        f"floor: >= {SPEEDUP_FLOOR}x on bfs, sssp and transpose",
    ]
    write_artifact("stream_gate.txt", "\n".join(lines))
    write_artifact("BENCH_stream.json", json.dumps({
        "scale": STREAM_SCALE, "n_batches": N_BATCHES,
        "batch_edges": BATCH_EDGES, "root": root,
        "speedup_floor": SPEEDUP_FLOOR,
        "bfs_speedup": bfs_speedup,
        "sssp_speedup": sssp_speedup,
        "pagerank_speedup": pr_speedup,
        "pagerank_warm_sweeps": warm_sweeps_total,
        "pagerank_cold_sweeps": cold_sweeps_total,
        "transpose_speedup": transpose_speedup,
        "repair_excludes_transpose": True,
        "per_batch": per_batch,
    }, indent=2, sort_keys=True))

    assert bfs_speedup >= SPEEDUP_FLOOR, \
        f"BFS repair only {bfs_speedup:.2f}x over recompute"
    assert sssp_speedup >= SPEEDUP_FLOOR, \
        f"SSSP repair only {sssp_speedup:.2f}x over recompute"
    assert transpose_speedup >= SPEEDUP_FLOOR, \
        f"transpose only {transpose_speedup:.2f}x over the sort"
