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

The level loop is :func:`repro.algorithms.bfs.bfs_levels`; GAP
contributes the alpha/beta direction rule and its pricing.  The
per-level sweeps go through a
:class:`~repro.graph.sweeps.SweepExecutor`: in-process
:class:`~repro.graph.sweeps.LocalSweeps` by default, a
:class:`~repro.shard.engine.ShardEngine` when the run is sharded --
bit-identical either way (``docs/kernels.md``).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import bfs_levels
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
    if sweeps is None:
        sweeps = LocalSweeps(graph.out,
                             scratch_for(graph, n, graph.out.n_edges))

    def rule(frontier, arcs, unexplored, bottom_up):
        if bottom_up:
            return frontier * beta >= n
        return arcs * alpha > max(unexplored, 1)

    parent, level, levels = bfs_levels(graph.out, root, sweeps, rule)
    profile = WorkProfile()
    max_deg = float(graph.out_degree().max()) if n else 0.0
    for frontier, _, examined, _ in levels:
        # GAP parallelizes over *edges* (OpenMP dynamic scheduling over
        # neighbor chunks), so a single hub cannot stall a thread: round
        # skew is capped low regardless of the frontier's degree spread.
        skew = min(max_deg / max(examined, 1.0), 0.15)
        profile.add_round(units=examined + frontier,
                          memory_bytes=12.0 * examined, skew=skew)
    steps = "".join("B" if bottom_up else "T" for *_, bottom_up in levels)
    return parent, level, profile, {"depth": len(levels), "steps": steps}
