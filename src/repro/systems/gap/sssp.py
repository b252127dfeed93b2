"""Delta-stepping SSSP (GAP's ``sssp.cc``).

Vertices are kept in distance buckets of width ``delta``; the algorithm
repeatedly settles the lowest non-empty bucket, relaxing *light* edges
(w < delta) iteratively inside the bucket and *heavy* edges once when
the bucket drains.  The paper lists delta among the tunables EPG* leaves
at defaults (Sec. V); for the uniform (0,1] weights of the homogenized
datasets we default to 0.25.

Light and heavy edges are two relaxation sets, as the GAP Benchmark
Suite defines them, and are stored that way: each CSR is split once per
``(graph, delta)`` into a light and a heavy CSR
(:meth:`~repro.graph.csr.CSRGraph.weight_split`, memoized on the graph),
and a relaxation round is one :func:`~repro.graph.frontier.relax_round`
over the part -- a push along its out-arcs on sparse rounds, a pull
over its in-arcs on dense ones (the part of ``out.transposed()``, which
is ``out`` on undirected input).  No round reads an arc of the other set.
Each round is still priced on every out-arc of its members, light and
heavy, so the profile is the one the gather-everything kernel priced.
The rounds go through a :class:`~repro.graph.sweeps.SweepExecutor`
(in-process by default, the shard engine when sharded); the bucket
logic below is the only copy.

Bucket membership is tracked lazily (the shared
:class:`~repro.graph.frontier.BucketQueue`): vertices are pushed onto
per-bucket pending lists as their tentative bucket changes and stale
entries are filtered on pop (``bucket[v] == k``), replacing the old ``O(n)``
``np.flatnonzero(bucket == current)`` scan per bucket -- pure queue
bookkeeping, so the (bucket, members) sequence, distances, stats, and
profile are unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.sssp import check_sssp_weights
from repro.errors import SystemCapabilityError
from repro.graph.frontier import BucketQueue, sorted_unique
from repro.graph.scratch import scratch_for
from repro.graph.sweeps import (
    RELAX_HEAVY,
    RELAX_LIGHT,
    LocalSweeps,
    SweepExecutor,
)
from repro.machine.threads import WorkProfile
from repro.systems.gap.graph import GapGraph

__all__ = ["delta_stepping", "DEFAULT_DELTA"]

DEFAULT_DELTA = 0.25

#: Bucket keys are clamped here, as floats, before the int64 cast: past
#: 2**63 the cast wraps.  The headroom keeps ``current + 1`` exact.
_MAX_BUCKET = float(2 ** 62)


def _buckets(dist: np.ndarray, delta: float) -> np.ndarray:
    return np.minimum(dist / delta, _MAX_BUCKET).astype(np.int64)


def delta_stepping(graph: GapGraph, root: int,
                   delta: float = DEFAULT_DELTA,
                   sweeps: SweepExecutor | None = None
                   ) -> tuple[np.ndarray, WorkProfile, dict]:
    """Return (distances, work profile, stats)."""
    out = graph.out
    if out.weights is None:
        raise SystemCapabilityError("GAP SSSP needs a weighted graph")
    if not delta > 0:  # NaN included
        raise SystemCapabilityError(f"delta must be positive, got {delta}")
    check_sssp_weights(out.weights)
    n = graph.n
    if sweeps is None:
        sweeps = LocalSweeps(out, scratch_for(graph, n, out.n_edges))
    dist = sweeps.begin_sssp(root, delta)
    profile = WorkProfile()
    max_deg = float(out.out_degrees().max()) if n else 0.0

    bucket = np.full(n, -1, dtype=np.int64)
    bucket[root] = 0
    queue = BucketQueue()
    queue.push(np.array([root], dtype=np.int64),
               np.zeros(1, dtype=np.int64))
    relaxations = 0
    phases = 0
    while True:
        head = queue.pop(bucket)
        if head is None:
            break
        current, members = head
        settled_this_bucket: list[np.ndarray] = []
        # Light-edge phases: iterate inside the bucket.
        while members.size:
            phases += 1
            improved, examined = sweeps.relax(members, RELAX_LIGHT)
            relaxations += examined
            # Edge-parallel relaxation: hub skew capped (see bfs.py).
            skew = min(max_deg / max(examined, 1.0), 0.15)
            profile.add_round(units=examined + members.size,
                              memory_bytes=20.0 * examined, skew=skew)
            settled_this_bucket.append(members)
            bucket[members] = -2  # settled (tentatively)
            if improved.size:
                # Non-negative weights keep new_bucket >= current up to
                # the clamp, and the maximum past it, so everything not
                # staying belongs to a later bucket.
                new_bucket = np.maximum(_buckets(dist[improved], delta),
                                        current)
                stay = new_bucket == current
                bucket[improved] = new_bucket
                ahead = ~stay
                if ahead.any():
                    queue.push(improved[ahead], new_bucket[ahead])
                members = improved[stay]
            else:
                members = np.empty(0, dtype=np.int64)
        # Heavy-edge phase: once per bucket.
        settled = sorted_unique(np.concatenate(settled_this_bucket))
        phases += 1
        improved, examined = sweeps.relax(settled, RELAX_HEAVY)
        relaxations += examined
        skew = min(max_deg / max(examined, 1.0), 0.15)
        profile.add_round(units=examined + settled.size,
                          memory_bytes=20.0 * examined, skew=skew)
        if improved.size:
            # Never reopen below the current bucket (weights >= 0).
            nb = np.maximum(_buckets(dist[improved], delta), current + 1)
            bucket[improved] = nb
            queue.push(improved, nb)

    stats = {"phases": phases, "relaxations": relaxations,
             "delta": delta}
    return dist.copy(), profile, stats
