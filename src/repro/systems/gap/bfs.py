"""Direction-optimizing BFS (Beamer's algorithm, GAP's ``bfs.cc``).

Alternates between classic top-down frontier expansion and bottom-up
parent search.  The switch heuristics use GAP's tunables:

* go bottom-up when the frontier's outgoing edge count exceeds
  ``edges_from_unexplored / alpha``;
* return top-down when the frontier shrinks below ``n / beta``.

The paper runs the defaults ``alpha=15, beta=18`` and notes (Sec. IV-C)
they are not optimal for every graph -- GraphBIG's plain BFS beats GAP
on dota-league exactly because of this, which our cost accounting
reproduces: bottom-up pays off only when it prunes enough edge
examinations, and the *actual* examined-edge counts are what the cost
model prices.

The loop below is the only copy of that control flow.  The per-round
edge sweeps go through a :class:`~repro.graph.sweeps.SweepExecutor`:
in-process :class:`~repro.graph.sweeps.LocalSweeps` by default, a
:class:`~repro.shard.engine.ShardEngine` when the run is sharded --
bit-identical either way (``docs/kernels.md``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.scratch import scratch_for
from repro.graph.sweeps import LocalSweeps, SweepExecutor
from repro.machine.threads import WorkProfile
from repro.systems.gap.graph import GapGraph

__all__ = ["dobfs", "DEFAULT_ALPHA", "DEFAULT_BETA"]

DEFAULT_ALPHA = 15.0
DEFAULT_BETA = 18.0


def dobfs(graph: GapGraph, root: int, alpha: float = DEFAULT_ALPHA,
          beta: float = DEFAULT_BETA, sweeps: SweepExecutor | None = None
          ) -> tuple[np.ndarray, np.ndarray, WorkProfile, dict]:
    """Run direction-optimizing BFS; return (parent, level, profile, stats)."""
    n = graph.n
    out_deg = graph.out_degree()
    if sweeps is None:
        sweeps = LocalSweeps(graph.out, graph.inn,
                             scratch_for(graph, n, graph.out.n_edges))
    sweeps.begin_bfs(root)
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    level[root] = 0
    frontier = np.array([root], dtype=np.int64)
    profile = WorkProfile()
    edges_unexplored = int(out_deg.sum()) - int(out_deg[root])
    depth = 0
    steps = ""
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
            new_v, examined = sweeps.bottom_up(frontier, parent)
            steps += "B"
        else:
            new_v, examined = sweeps.top_down(frontier, parent)
            steps += "T"

        # GAP parallelizes over *edges* (OpenMP dynamic scheduling over
        # neighbor chunks), so a single hub cannot stall a thread: round
        # skew is capped low regardless of the frontier's degree spread.
        skew = min(max_deg / max(examined, 1.0), 0.15)
        profile.add_round(units=examined + frontier.size,
                          memory_bytes=12.0 * examined, skew=skew)
        level[new_v] = depth
        edges_unexplored -= int(out_deg[new_v].sum())
        frontier = new_v

    return parent, level, profile, {"depth": depth, "steps": steps}
