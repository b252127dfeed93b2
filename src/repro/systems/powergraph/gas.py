"""The synchronous gather-apply-scatter engine.

Every program the engines run is a *min-program*: gather takes the
minimum, over a vertex's in-arcs ``s -> t``, of ``value[s]`` plus what
the arc adds -- its weight for SSSP, 1 for BFS hops, 0 for WCC -- and
apply keeps the smaller of that and the vertex's own value.  So a
program is named by what an arc adds (``adds``; ``None`` for the arc's
weight).  The engine runs supersteps over the signalled vertex set until
quiescence (no signals) or an iteration cap.  Work is *priced* per
superstep as the toolkit performs it -- the Table/Fig numbers rest on
these counts:

* gather: one unit per in-edge of a signalled vertex (a full gather);
* apply: one unit per signalled vertex;
* scatter: one unit per out-edge of a changed vertex;
* mirror sync: ``replication_factor`` units per signalled vertex (the
  master/mirror exchange a distributed PowerGraph would send over the
  network and the shared-memory build still performs through its
  communication abstraction).

It is *executed* through an accumulator cache, PowerGraph's own delta
caching (Gonzalez et al., OSDI'12, Sec. 4.2): ``acc[v]`` holds the
min-reduced gather of ``v``; one full gather fills it and from then on
the scatter of a changed vertex posts its new term to its
out-neighbours' accumulators.  Both are one
:func:`~repro.graph.frontier.relax_round`, which pushes along the
out-CSR or pulls over the in-CSR, ``out.transposed()``, by the share
of arcs it covers.  A
gather is then a read of ``acc``, and the scatter's round also names
the next superstep's signalled set.  That is exact for min-programs,
whose apply never raises a value, because the term of an unchanged
source is already in the accumulator, the new term of a changed one is
no larger than the one it replaces, and ``min`` over NaN-free floats
does not depend on order.

The fiber scheduler's per-superstep latency is folded into the barrier
cost of the thread model (PowerGraph's calibrated ``barrier_s`` is the
largest of the five systems).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.frontier import relax_round
from repro.graph.scratch import scratch_for
from repro.machine.threads import WorkProfile

__all__ = ["GasEngine", "AsyncGasEngine"]


class GasEngine:
    """Synchronous engine over a vertex-cut partitioned graph.

    ``replication_factor`` is the cut's mean replicas per present
    vertex, which prices the mirror sync.
    """

    def __init__(self, out: CSRGraph, replication_factor: float):
        self.out = out
        self.replication_factor = replication_factor

    @property
    def inn(self) -> CSRGraph:
        return self.out.transposed()

    def _scratch(self):
        """Kernel scratch keyed on the engine (which owns its CSR)."""
        return scratch_for(self, self.out.n_vertices, self.out.n_edges)

    def _stats(self, supersteps: int, gathered: int, scattered: int
               ) -> dict:
        return {"supersteps": supersteps, "gathered_edges": gathered,
                "scattered_edges": scattered,
                "replication_factor": self.replication_factor}

    # ------------------------------------------------------------------
    def _post(self, data: np.ndarray, adds: float | None, acc: np.ndarray,
              members: np.ndarray | None = None,
              touched: np.ndarray | None = None) -> int:
        """Post the terms of ``members`` along their out-arcs into
        ``acc``; returns the out-arcs examined.  By default every vertex
        with a finite value posts -- the full gather of every in-edge,
        since an infinite term lowers no accumulator."""
        if members is None:
            members = np.flatnonzero(data < np.inf)
        _, examined = relax_round(self.out, self.inn, members, data, acc,
                                  self._scratch(), adds, touched)
        return examined

    def run(self, initial: np.ndarray, initially_active: np.ndarray,
            adds: float | None = None, max_supersteps: int = 10_000,
            ) -> tuple[np.ndarray, int, WorkProfile, dict]:
        """Run the min-program whose arcs add ``adds`` (``None``: their
        weight) to quiescence; return (data, supersteps, profile,
        stats)."""
        n = self.out.n_vertices
        scratch = self._scratch()
        data = initial.copy()
        superstep = 0
        profile = WorkProfile()
        rep = max(self.replication_factor, 1.0)
        in_deg = self.inn.out_degrees()
        out_deg = self.out.out_degrees()
        max_deg = float(out_deg.max()) if n else 0.0
        gathered_edges = 0
        scattered_edges = 0

        # The accumulators' starting point: a full gather.
        acc = np.full(n, np.inf)
        self._post(data, adds, acc)
        signalled = scratch.mask("signal")
        # Who gathers: the initially signalled set on the first
        # superstep, then whoever the last scatter reached.
        targets = changed = np.flatnonzero(initially_active)
        while changed.size and superstep < max_supersteps:
            superstep += 1
            if targets.size == 0:
                # The last changed set had no out-arcs: the superstep
                # that finds nobody signalled still counts.
                break
            g_edges = int(in_deg[targets].sum())
            gathered_edges += g_edges

            old_vals = data[targets]
            new_vals = np.minimum(old_vals, acc[targets])
            data[targets] = new_vals
            if superstep == 1:
                # Initially signaled vertices always scatter once, even
                # when apply leaves their value unchanged (the root of an
                # SSSP must announce its zero distance).
                changed = targets
            else:
                changed = targets[new_vals != old_vals]

            # Scatter: post each changed vertex's new term to its
            # out-neighbours' accumulators; everyone reached is
            # signalled, improved or not.
            s_edges = self._post(data, adds, acc, changed, touched=signalled)
            scattered_edges += s_edges
            mirror_units = rep * targets.size
            units = g_edges + s_edges + targets.size + mirror_units
            profile.add_round(
                units=units,
                memory_bytes=24.0 * (g_edges + s_edges) + 16.0 * mirror_units,
                skew=min(max_deg / max(units, 1.0), 1.0))

            targets = np.flatnonzero(signalled)
            signalled[targets] = False

        return (data, superstep, profile,
                self._stats(superstep, gathered_edges, scattered_edges))


class AsyncGasEngine(GasEngine):
    """PowerGraph's asynchronous engine (``--engine async``).

    Instead of bulk-synchronous supersteps, fibers drain a prioritized
    vertex queue: the vertex with the smallest tentative value runs its
    gather/apply/scatter immediately against the freshest state.  For
    monotone min-programs (SSSP, WCC) this is label-correcting with a
    best-first order -- fewer total updates than the synchronous
    engine's frontier-wide sweeps, bought with fine-grained locking
    that the cost model charges through a higher per-unit price (the
    lock/queue overhead is folded into the mirror-sync term, scaled by
    :data:`ASYNC_OVERHEAD`).
    """

    #: Extra work-units charged per processed vertex for queue + lock
    #: traffic relative to the synchronous engine's barrier amortization.
    ASYNC_OVERHEAD = 4.0

    def run(self, initial: np.ndarray, initially_active: np.ndarray,
            adds: float | None = None, max_supersteps: int = 10_000,
            ) -> tuple[np.ndarray, int, WorkProfile, dict]:
        data = initial.copy()
        out = self.out
        rep = max(self.replication_factor, 1.0)
        profile = WorkProfile()
        scattered_edges = 0
        processed = 0

        heap: list[tuple[float, int]] = []
        for v in np.flatnonzero(initially_active):
            heapq.heappush(heap, (float(data[v]), int(v)))

        # Best-first label-correcting loop over out-edges: pop the
        # smallest tentative value, relax its out-neighbors directly
        # (gather degenerates to the popped value for min-programs).
        batch_units = 0.0
        batch_edges = 0
        while heap:
            val, v = heapq.heappop(heap)
            if val > data[v]:
                continue  # stale queue entry
            processed += 1
            lo, hi = out.row_ptr[v], out.row_ptr[v + 1]
            nbrs = out.col_idx[lo:hi]
            scattered_edges += int(hi - lo)
            if adds is None:
                cand = val + out.weights[lo:hi]
            else:
                cand = np.full(nbrs.size, val + adds)
            better = cand < data[nbrs]
            for w, c in zip(nbrs[better], cand[better]):
                # Re-check per assignment: parallel arcs to the same
                # neighbor appear twice in nbrs, and the vectorized
                # `better` mask was computed against the pre-loop state.
                if c < data[w]:
                    data[w] = c
                    heapq.heappush(heap, (float(c), int(w)))
            batch_units += (hi - lo) + self.ASYNC_OVERHEAD + rep
            batch_edges += int(hi - lo)
            # Flush accounting every so often to bound round counts.
            if batch_edges >= 4096:
                profile.add_round(units=batch_units,
                                  memory_bytes=24.0 * batch_edges,
                                  skew=0.1)
                batch_units = 0.0
                batch_edges = 0
        if batch_units:
            profile.add_round(units=batch_units,
                              memory_bytes=24.0 * batch_edges, skew=0.1)
        return (data, processed, profile,
                self._stats(processed, scattered_edges, scattered_edges))
