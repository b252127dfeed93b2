"""Graph500 kernel 2: level-synchronous top-down BFS with a bitmap.

Always top-down (the 2.1.4-era OpenMP reference predates
direction-optimization): every level gathers all out-slots of the
frontier, filters against the visited bitmap, and claims parents with
compare-and-swap semantics (modeled deterministically as lowest-source
wins).  Every frontier out-edge is examined, so the per-root work is
~``m`` arcs regardless of graph shape -- the reason the Graph500's
per-edge constant is the leanest but its examined-edge count the
highest (see calibration anchors).

The level loop is :func:`repro.algorithms.bfs.bfs_levels` under a rule
that never goes bottom-up; each level is one ``top_down`` call on a
:class:`~repro.graph.sweeps.SweepExecutor` (in-process by default, the
shard engine when sharded; ``docs/kernels.md``).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import bfs_levels
from repro.graph.csr import CSRGraph
from repro.graph.scratch import scratch_for
from repro.graph.sweeps import LocalSweeps, SweepExecutor
from repro.machine.threads import WorkProfile

__all__ = ["bfs_bitmap"]


def _top_down(_frontier, _arcs, _unexplored, _bottom_up) -> bool:
    return False


def bfs_bitmap(csr: CSRGraph, root: int,
               sweeps: SweepExecutor | None = None
               ) -> tuple[np.ndarray, np.ndarray, WorkProfile, dict]:
    """Return (parent, level, profile, stats) for one search key."""
    n = csr.n_vertices
    if sweeps is None:
        sweeps = LocalSweeps(csr, scratch_for(csr, n, csr.n_edges))
    parent, level, levels = bfs_levels(csr, root, sweeps, _top_down)
    profile = WorkProfile()
    max_deg = float(csr.out_degrees().max()) if n else 0.0
    examined_total = 0
    for frontier, _, examined, _ in levels:
        if examined == 0:
            continue  # a frontier without out-arcs is not a priced round
        examined_total += examined
        skew = min(max_deg / max(examined, 1.0), 1.0)
        profile.add_round(units=examined + frontier,
                          memory_bytes=9.0 * examined, skew=skew)
    stats = {"depth": len(levels), "edges_examined": examined_total}
    return parent, level, profile, stats
