"""The sweep interface the control loops are written against.

The BFS level loop (:func:`repro.algorithms.bfs.bfs_levels`, which
``dobfs`` and ``bfs_bitmap`` run under their own direction rules),
``delta_stepping`` and ``pagerank`` each keep their control flow --
direction switch, bucket bookkeeping, residual -- in one function and
hand the per-round edge sweep to an executor.  Two exist:
:class:`LocalSweeps` below runs the serial step bodies in-process,
:class:`repro.shard.engine.ShardEngine` fans the same calls out over
its shards.  Both return bit-identical values, so which
one ran never shows in an output, a profile or a stat.

An executor owns the state its sweeps read (visited set, distance
vector) and the writes into it; a loop only sees what a call returns.
Arrays handed out by ``begin_sssp`` / ``pagerank_sweep`` belong to the
executor and are reused by its next kernel: loops return copies.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.frontier import (
    arc_sum_operator,
    first_hit_scan,
    first_parent_candidates,
    out_arc_count,
    relax_round,
)
from repro.graph.scratch import KernelScratch

__all__ = ["SweepExecutor", "LocalSweeps", "RELAX_LIGHT", "RELAX_HEAVY"]

#: ``relax`` modes: arcs lighter than delta, or all the others (each
#: the index of its part in :meth:`CSRGraph.weight_split`'s pair).
RELAX_LIGHT = 0
RELAX_HEAVY = 1


class SweepExecutor(Protocol):
    """What a control loop may call.  Vertex-id results are sorted."""

    def begin_bfs(self, root: int) -> None:
        """Start a BFS: only ``root`` is visited."""

    def top_down(self, frontier: np.ndarray, parent: np.ndarray
                 ) -> tuple[np.ndarray, int]:
        """Claim every unvisited out-neighbor of ``frontier`` for its
        lowest frontier source (written to ``parent``); returns the
        claimed vertices and the out-arcs examined."""

    def bottom_up(self, frontier: np.ndarray, parent: np.ndarray
                  ) -> tuple[np.ndarray, int]:
        """Each unvisited vertex takes its first in-neighbor in
        ``frontier`` as parent; same returns, early-exit arc count."""

    def begin_sssp(self, root: int, delta: float) -> np.ndarray:
        """Start an SSSP; returns the distance vector ``relax`` updates."""

    def relax(self, members: np.ndarray, mode: int
              ) -> tuple[np.ndarray, int]:
        """Relax the light or heavy out-arcs of ``members``; returns the
        vertices whose distance dropped and the members' out-arc count,
        light and heavy alike (what the profiles price)."""

    def begin_pagerank(self, rank: np.ndarray) -> np.ndarray:
        """Start a power iteration from ``rank`` (not modified); returns
        the vector to pass to the first ``pagerank_sweep``."""

    def pagerank_sweep(self, rank: np.ndarray, dangling_mass: float,
                       base: float, damping: float) -> np.ndarray:
        """One sweep over every arc.  ``rank`` is what ``begin_pagerank``
        or the previous sweep returned; the result is another array."""


class LocalSweeps:
    """The serial step bodies over one graph's CSR.  ``top_down`` is
    :func:`first_parent_candidates` plus its two writes (``parent``,
    ``visited``), the same call a shard's ``OP_TD`` makes on its slice.

    ``bottom_up``, the pulls of ``relax`` and the PageRank sweep read
    the in-arcs, ``out.transposed()``, first asked for by the first of
    them.  ``scratch`` serves everything but PageRank.
    """

    def __init__(self, out: CSRGraph, scratch: KernelScratch | None = None):
        self.out = out
        self.scratch = scratch
        self.n = out.n_vertices

    # -- BFS -----------------------------------------------------------
    def begin_bfs(self, root: int) -> None:
        self.visited = np.zeros(self.n, dtype=bool)
        self.visited[root] = True

    def top_down(self, frontier, parent):
        new_v, parents, examined = first_parent_candidates(
            self.out.row_ptr, self.out.col_idx, frontier, self.visited,
            self.scratch)
        parent[new_v] = parents
        self.visited[new_v] = True
        return new_v, examined

    def bottom_up(self, frontier, parent):
        inn = self.out.transposed()
        cand = np.flatnonzero(~self.visited)
        in_frontier = self.scratch.mask("frontier")
        in_frontier[frontier] = True
        found, parents, examined = first_hit_scan(
            inn.row_ptr, inn.col_idx, cand, in_frontier, self.scratch)
        in_frontier[frontier] = False
        new_v = cand[found]
        parent[new_v] = parents
        self.visited[new_v] = True
        return new_v, examined

    # -- SSSP ----------------------------------------------------------
    def begin_sssp(self, root: int, delta: float) -> np.ndarray:
        self.set_delta(delta)
        self.dist = np.full(self.n, np.inf)
        self.dist[root] = 0.0
        return self.dist

    def set_delta(self, delta: float) -> None:
        """Take the light and heavy parts of the out-arcs (pushed along)
        and of the in-arcs (pulled over), indexed by ``relax`` mode.
        Each CSR memoizes its split while ``delta`` repeats, so only the
        first kernel at a delta pays for it."""
        self.out_parts = self.out.weight_split(delta)
        self.in_parts = self.out.transposed().weight_split(delta)

    def relax(self, members, mode, examined=None, arcs=None):
        # Priced on every out-arc of the members, light and heavy alike.
        # A caller that has counted those (``examined``) or the part's
        # (``arcs``) passes the count in.
        if examined is None:
            examined = out_arc_count(self.out.row_ptr, members)
        improved, _ = relax_round(self.out_parts[mode], self.in_parts[mode],
                                  members, self.dist, self.dist,
                                  self.scratch, arcs=arcs)
        return improved, examined

    # -- PageRank ------------------------------------------------------
    def begin_pagerank(self, rank):
        out = self.out
        # Dangling vertices own no arc; 1 only keeps 0/0 out of it.
        self.divisor = np.maximum(out.out_degrees(), 1).astype(np.float64)
        inn = out.transposed()
        self.arcs = arc_sum_operator(inn.row_ptr, inn.col_idx, self.n)
        return rank

    def pagerank_sweep(self, rank, dangling_mass, base, damping):
        # Shares are divided once per vertex, then gathered over the
        # in-arcs, sources ascending: the order a push adds them in.
        contrib = self.arcs @ (rank / self.divisor)
        return base + damping * (contrib + dangling_mass)
