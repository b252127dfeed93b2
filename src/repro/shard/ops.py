"""Per-shard superstep bodies.

One :class:`ShardContext` per shard bundles that shard's CSR slices,
the shared round state (rank/distance vector, visited/frontier bitmaps,
broadcast buffer), and its preallocated delta ring.  The four op
functions below are the *entire* worker-side compute: the engine's
worker loop and its inline fallback both dispatch to these, so the
process-backed and in-process paths are the same code by construction.
They are the shard-side counterparts of the step bodies in
:class:`repro.graph.sweeps.LocalSweeps`: same values, different
division of labour (candidates are filtered and reduced per shard, the
parent merges and writes), with the bottom-up scan shared outright
(:func:`repro.graph.frontier.first_hit_scan`).

Each op reads shared state (parent-written, stable between barriers),
computes on its own slice, and writes ``(ids, values)`` deltas plus an
examined-arc count into its ring.  Reductions that must merge across
shards (min-parent, min-distance) are exact integer/float minima, which
are order-independent; floating-point *sums* never cross a shard
boundary -- PageRank accumulates per destination inside the owning
shard, in the destination's full in-neighbor order, exactly as the
serial sweep does (see ``docs/sharding.md``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.frontier import first_hit_scan, gather_slots
from repro.graph.scratch import KernelScratch
from repro.graph.sweeps import RELAX_LIGHT

__all__ = ["ShardContext", "OP_SHUTDOWN", "OP_TD", "OP_BU", "OP_RELAX",
           "OP_PR", "run_op"]

OP_SHUTDOWN = 0
OP_TD = 1
OP_BU = 2
OP_RELAX = 3
OP_PR = 4

#: ctrl_i layout: [0] op, [1] frontier length, [2] relax mode,
#: [3] PageRank reads ``vec2`` and writes ``vec`` instead of the reverse.
CTRL_OP = 0
CTRL_FRONT_LEN = 1
CTRL_MODE = 2
CTRL_FLIP = 3
#: ctrl_f layout: [0] delta, [1] dangling mass, [2] base, [3] damping.
CTRL_DELTA = 0
CTRL_DANGLING = 1
CTRL_BASE = 2
CTRL_DAMPING = 3

#: ring header layout: [0] delta count, [1] examined/units, [2] error.
HDR_COUNT = 0
HDR_EXAMINED = 1
HDR_ERROR = 2


class ShardContext:
    """Everything one shard's op functions touch.

    ``out_*`` is the push slice (full row space), ``in_*`` the pull
    slice (local rows over ``owned``); shared arrays are views into the
    dynamic arena (or plain arrays in inline mode).
    """

    def __init__(self, shard: int, n: int, *,
                 out_row_ptr: np.ndarray, out_col_idx: np.ndarray,
                 out_weights: np.ndarray | None,
                 owned: np.ndarray | None = None,
                 in_row_ptr: np.ndarray | None = None,
                 in_col_idx: np.ndarray | None = None,
                 out_degrees: np.ndarray | None = None,
                 vec: np.ndarray, vec2: np.ndarray,
                 visited: np.ndarray, in_frontier: np.ndarray,
                 frontier: np.ndarray, ctrl_i: np.ndarray,
                 ctrl_f: np.ndarray, ring_ids: np.ndarray,
                 ring_val: np.ndarray, ring_hdr: np.ndarray):
        self.shard = int(shard)
        self.n = int(n)
        self.out_row_ptr = out_row_ptr
        self.out_col_idx = out_col_idx
        self.out_weights = out_weights
        self.owned = owned
        self.in_row_ptr = in_row_ptr
        self.in_col_idx = in_col_idx
        self.out_degrees = out_degrees
        self.vec = vec
        self.vec2 = vec2
        self.visited = visited
        self.in_frontier = in_frontier
        self.frontier = frontier
        self.ctrl_i = ctrl_i
        self.ctrl_f = ctrl_f
        self.ring_ids = ring_ids
        self.ring_val = ring_val
        self.ring_hdr = ring_hdr
        n_edges = max(out_col_idx.size,
                      in_col_idx.size if in_col_idx is not None else 0)
        self.scratch = KernelScratch(self.n, n_edges)
        #: Local destination row per pull arc (static; PageRank's
        #: accumulation index, precomputed once per engine).
        self.pr_rows = (np.repeat(
            np.arange(self.in_row_ptr.size - 1, dtype=np.int64),
            np.diff(self.in_row_ptr))
            if in_row_ptr is not None else None)

    # ------------------------------------------------------------------
    def emit(self, ids: np.ndarray, vals: np.ndarray,
             examined: int) -> None:
        k = ids.size
        self.ring_ids[:k] = ids
        self.ring_val[:k] = vals
        self.ring_hdr[HDR_COUNT] = k
        self.ring_hdr[HDR_EXAMINED] = examined

    def emit_empty(self, examined: int) -> None:
        self.ring_hdr[HDR_COUNT] = 0
        self.ring_hdr[HDR_EXAMINED] = examined


def _min_per_id(ids: np.ndarray, vals: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Exact (sorted unique ids, min value per id)."""
    order = np.argsort(ids, kind="stable")
    ids_s = ids[order]
    first = np.ones(ids_s.size, dtype=bool)
    first[1:] = ids_s[1:] != ids_s[:-1]
    mins = np.minimum.reduceat(vals[order], np.flatnonzero(first))
    return ids_s[first], mins


def op_td(ctx: ShardContext) -> None:
    """Top-down expansion: per-target minimum source over this shard's
    arcs, candidates restricted to unvisited targets (visited is stable
    within the superstep, so shard-side filtering equals the serial
    post-claim filter)."""
    frontier = ctx.frontier[:int(ctx.ctrl_i[CTRL_FRONT_LEN])]
    gs = gather_slots(ctx.out_row_ptr, frontier, ctx.scratch)
    if gs.total == 0:
        ctx.emit_empty(0)
        return
    nbrs = ctx.out_col_idx[gs.slots]
    srcs = np.repeat(frontier, gs.counts)
    keep = ~ctx.visited[nbrs]
    nbrs = nbrs[keep]
    srcs = srcs[keep]
    if nbrs.size == 0:
        ctx.emit_empty(gs.total)
        return
    uniq, mins = _min_per_id(nbrs, srcs)
    ctx.emit(uniq, mins.astype(np.float64), gs.total)


def op_bu(ctx: ShardContext) -> None:
    """Bottom-up parent search over the mastered vertices' full
    in-neighbor lists, so the per-vertex early-exit counts sum to the
    serial count."""
    owned = ctx.owned
    cand = owned[~ctx.visited[owned]]
    found, parents, examined = first_hit_scan(
        ctx.in_row_ptr, ctx.in_col_idx, np.searchsorted(owned, cand),
        ctx.in_frontier, ctx.scratch)
    ctx.emit(cand[found], parents.astype(np.float64), examined)


def op_relax(ctx: ShardContext) -> None:
    """One relaxation round over this shard's light or heavy arcs of
    the broadcast members; per-destination segment minimum."""
    members = ctx.frontier[:int(ctx.ctrl_i[CTRL_FRONT_LEN])]
    mode = int(ctx.ctrl_i[CTRL_MODE])
    gs = gather_slots(ctx.out_row_ptr, members, ctx.scratch)
    if gs.total == 0:
        ctx.emit_empty(0)
        return
    keep = ctx.out_weights[gs.slots] < float(ctx.ctrl_f[CTRL_DELTA])
    if mode != RELAX_LIGHT:
        keep = ~keep
    slots = gs.slots[keep]
    srcs = np.repeat(members, gs.counts)[keep]
    if slots.size == 0:
        ctx.emit_empty(gs.total)
        return
    dsts = ctx.out_col_idx[slots]
    cand = ctx.vec[srcs] + ctx.out_weights[slots]
    better = cand < ctx.vec[dsts]
    dsts_b = dsts[better]
    if dsts_b.size == 0:
        ctx.emit_empty(gs.total)
        return
    uniq, mins = _min_per_id(dsts_b, cand[better])
    ctx.emit(uniq, mins, gs.total)


def op_pr(ctx: ShardContext) -> None:
    """One PageRank sweep over the mastered destinations.

    ``bincount`` adds each destination's contributions in its full
    in-neighbor (ascending source) order -- the same per-element
    addition sequence as the serial sweep over all arcs, so every rank
    entry is bit-identical.  The shard writes its owned slice of the new
    rank vector directly (the disjoint-scatter "allreduce"); no float
    sum ever crosses a shard boundary.
    """
    dangling = float(ctx.ctrl_f[CTRL_DANGLING])
    base = float(ctx.ctrl_f[CTRL_BASE])
    damping = float(ctx.ctrl_f[CTRL_DAMPING])
    rank, new_rank = ((ctx.vec2, ctx.vec) if ctx.ctrl_i[CTRL_FLIP]
                      else (ctx.vec, ctx.vec2))
    share = rank[ctx.in_col_idx] / ctx.out_degrees[ctx.in_col_idx]
    contrib = np.bincount(ctx.pr_rows, weights=share,
                          minlength=ctx.owned.size)
    new_rank[ctx.owned] = base + damping * (contrib + dangling)
    ctx.emit_empty(ctx.in_col_idx.size)


_OPS = {OP_TD: op_td, OP_BU: op_bu, OP_RELAX: op_relax, OP_PR: op_pr}


def run_op(ctx: ShardContext, op: int) -> None:
    """Dispatch one superstep body, trapping errors into the ring
    header so a failed shard still reaches the completion barrier."""
    ctx.ring_hdr[HDR_ERROR] = 0
    try:
        _OPS[op](ctx)
    except Exception:
        ctx.ring_hdr[HDR_COUNT] = 0
        ctx.ring_hdr[HDR_EXAMINED] = 0
        ctx.ring_hdr[HDR_ERROR] = 1
        raise
