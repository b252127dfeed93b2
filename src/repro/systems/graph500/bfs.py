"""Graph500 kernel 2: level-synchronous top-down BFS with a bitmap.

Always top-down (the 2.1.4-era OpenMP reference predates
direction-optimization): every level gathers all out-slots of the
frontier, filters against the visited bitmap, and claims parents with
compare-and-swap semantics (modeled deterministically as lowest-source
wins).  Every frontier out-edge is examined, so the per-root work is
~``m`` arcs regardless of graph shape -- the reason the Graph500's
per-edge constant is the leanest but its examined-edge count the
highest (see calibration anchors).

The per-level expansion and claim is one ``top_down`` call on a
:class:`~repro.graph.sweeps.SweepExecutor` (in-process by default, the
shard engine when sharded; ``docs/kernels.md``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.scratch import scratch_for
from repro.graph.sweeps import LocalSweeps, SweepExecutor
from repro.machine.threads import WorkProfile

__all__ = ["bfs_bitmap"]


def bfs_bitmap(csr: CSRGraph, root: int,
               sweeps: SweepExecutor | None = None
               ) -> tuple[np.ndarray, np.ndarray, WorkProfile, dict]:
    """Return (parent, level, profile, stats) for one search key."""
    n = csr.n_vertices
    if sweeps is None:
        sweeps = LocalSweeps(csr, None, scratch_for(csr, n, csr.n_edges))
    sweeps.begin_bfs(root)
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    profile = WorkProfile()
    deg = csr.out_degrees()
    max_deg = float(deg.max()) if n else 0.0
    depth = 0
    examined_total = 0

    while frontier.size:
        depth += 1
        new_v, total = sweeps.top_down(frontier, parent)
        if total == 0:
            break
        examined_total += total
        skew = min(max_deg / max(total, 1.0), 1.0)
        profile.add_round(units=total + frontier.size,
                          memory_bytes=9.0 * total, skew=skew)
        level[new_v] = depth
        frontier = new_v

    stats = {"depth": depth, "edges_examined": examined_total}
    return parent, level, profile, stats
