"""Per-shard superstep bodies.

One :class:`ShardContext` per shard bundles that shard's CSR slices,
the shared round state (rank/distance vector, visited/frontier bitmaps,
broadcast buffer), and its preallocated delta ring.  The four op
functions below are the *entire* per-shard compute: the engine's
worker loop, the parent's own shard 0 and the inline fallback all
dispatch to these, so the process-backed and in-process paths are the
same code by construction.
They are the step bodies of :class:`repro.graph.sweeps.LocalSweeps`
applied to a slice: the same :mod:`repro.graph.frontier` primitives
(:func:`~repro.graph.frontier.first_parent_candidates`,
:func:`~repro.graph.frontier.first_hit_scan`,
:func:`~repro.graph.frontier.pull_min`) find the round's candidates or
minima over whole owned rows, and the writes a local sweep would make
are left to the parent: an op never writes ``visited``, ``vec`` or
``in_frontier``.  A relax round crosses only when it pulls; a pushed
one stays in the parent (``ShardEngine.relax``).

Each op reads shared state (parent-written, stable between barriers),
computes on its own slice, and writes ``(ids, values)`` deltas plus an
examined-arc count into its ring.  Every arc is executed by its
target's owner, so a ring holds sorted ids of the shard's own range and
the whole reduction per vertex (min-parent, min-distance, PageRank's
sum in the full in-neighbor order, as the serial sweep adds it) happens
on one shard; nothing is reduced across shards (see
``docs/sharding.md``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.frontier import (
    arc_sum_operator,
    first_hit_scan,
    first_parent_candidates,
    pull_min,
)
from repro.graph.scratch import KernelScratch

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

    The shard owns the vertices ``lo .. hi - 1``.  ``out`` is the push
    slice as a CSR over the full row space (arcs only: top-down reads
    no weight), ``inn`` the pull slice (local row ``i`` is vertex
    ``lo + i``); shared arrays are views into the dynamic arena (or
    plain arrays in inline mode).
    ``whole_in``, when given, is the whole graph's in-CSR, of which the
    pull slice is a row block: a context in the engine's own process
    pulls over blocks of that CSR's light/heavy split -- which the
    engine's local rounds memoize anyway -- instead of splitting its
    slice a second time.
    """

    def __init__(self, shard: int, n: int, lo: int, hi: int, *,
                 out_row_ptr: np.ndarray, out_col_idx: np.ndarray,
                 in_row_ptr: np.ndarray | None = None,
                 in_col_idx: np.ndarray | None = None,
                 in_weights: np.ndarray | None = None,
                 whole_in: CSRGraph | None = None,
                 out_degrees: np.ndarray | None = None,
                 vec: np.ndarray, vec2: np.ndarray,
                 visited: np.ndarray, in_frontier: np.ndarray,
                 frontier: np.ndarray, ctrl_i: np.ndarray,
                 ctrl_f: np.ndarray, ring_ids: np.ndarray,
                 ring_val: np.ndarray, ring_hdr: np.ndarray):
        self.shard = int(shard)
        self.n = int(n)
        self.lo = int(lo)
        self.hi = int(hi)
        self.out = CSRGraph(row_ptr=out_row_ptr, col_idx=out_col_idx)
        self.inn = (CSRGraph(row_ptr=in_row_ptr, col_idx=in_col_idx,
                             weights=in_weights)
                    if in_row_ptr is not None else None)
        self.whole_in = whole_in
        #: ``(delta, (light, heavy))`` of the pull slice.
        self._pull_parts: tuple | None = None
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
        #: Source value per member within a relax round; all ``+inf``
        #: between rounds.
        self.src_val = np.full(self.n, np.inf)
        #: The pull slice as PageRank's sum over the owned rows' in-arcs
        #: (static, built once per engine).
        self.pr_arcs = (arc_sum_operator(in_row_ptr, in_col_idx, self.n)
                        if in_row_ptr is not None else None)

    # ------------------------------------------------------------------
    def pull_parts(self, delta: float) -> tuple[CSRGraph, CSRGraph]:
        """The light and heavy part of the pull slice, local rows as
        ``inn``'s; rebuilt only when ``delta`` changes."""
        if self._pull_parts is None or self._pull_parts[0] != delta:
            if self.whole_in is not None:
                parts = tuple(p.row_block(self.lo, self.hi)
                              for p in self.whole_in.weight_split(delta))
            else:
                parts = self.inn.weight_split(delta)
            self._pull_parts = (delta, parts)
        return self._pull_parts[1]

    def emit(self, ids: np.ndarray, vals: np.ndarray,
             examined: int) -> None:
        k = ids.size
        self.ring_ids[:k] = ids
        self.ring_val[:k] = vals
        self.ring_hdr[HDR_COUNT] = k
        self.ring_hdr[HDR_EXAMINED] = examined


def op_td(ctx: ShardContext) -> None:
    """Top-down expansion: minimum source over this shard's arcs for
    every unvisited target (visited is stable within the superstep)."""
    frontier = ctx.frontier[:int(ctx.ctrl_i[CTRL_FRONT_LEN])]
    ctx.emit(*first_parent_candidates(ctx.out.row_ptr, ctx.out.col_idx,
                                      frontier, ctx.visited, ctx.scratch))


def op_bu(ctx: ShardContext) -> None:
    """Bottom-up parent search over the owned vertices' full
    in-neighbor lists, so the per-vertex early-exit counts sum to the
    serial count."""
    rows = np.flatnonzero(~ctx.visited[ctx.lo:ctx.hi])
    found, parents, examined = first_hit_scan(
        ctx.inn.row_ptr, ctx.inn.col_idx, rows, ctx.in_frontier,
        ctx.scratch)
    ctx.emit(rows[found] + ctx.lo, parents.astype(np.float64), examined)


def op_relax(ctx: ShardContext) -> None:
    """One pulled relaxation round over the light or heavy part of this
    shard's pull slice (split once per delta) for the broadcast
    members: each owned vertex's minimum over its complete in-row, the
    ids where it beats the pre-round distance.  The examined count is
    the parent's to price (``ShardEngine.relax``)."""
    members = ctx.frontier[:int(ctx.ctrl_i[CTRL_FRONT_LEN])]
    part = ctx.pull_parts(float(ctx.ctrl_f[CTRL_DELTA]))[
        int(ctx.ctrl_i[CTRL_MODE])]
    rows, starts = part.pull_rows()
    src_val = ctx.src_val
    src_val[members] = ctx.vec[members]
    y = pull_min(starts, part.col_idx, part.weights, src_val)
    src_val[members] = np.inf
    ids = rows + ctx.lo
    better = y < ctx.vec[ids]
    ctx.emit(ids[better], y[better], 0)


def op_pr(ctx: ShardContext) -> None:
    """One PageRank sweep over the owned destinations.

    The local sweep on the owned rows: each destination's contributions
    are added in its full in-neighbor (ascending source) order -- the
    same per-element addition sequence as the serial sweep over all
    arcs, so every rank entry is bit-identical.  The shard writes its
    owned slice of the new rank vector directly (the disjoint-scatter
    "allreduce"); no float sum ever crosses a shard boundary.
    """
    dangling = float(ctx.ctrl_f[CTRL_DANGLING])
    base = float(ctx.ctrl_f[CTRL_BASE])
    damping = float(ctx.ctrl_f[CTRL_DAMPING])
    rank, new_rank = ((ctx.vec2, ctx.vec) if ctx.ctrl_i[CTRL_FLIP]
                      else (ctx.vec, ctx.vec2))
    contrib = ctx.pr_arcs @ (rank / ctx.out_degrees)
    new_rank[ctx.lo:ctx.hi] = base + damping * (contrib + dangling)
    ctx.ring_hdr[HDR_COUNT] = 0
    ctx.ring_hdr[HDR_EXAMINED] = ctx.inn.n_edges


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
