"""GraphBIG vertex-centric kernels.

All kernels operate on the property-graph structure
(:class:`~repro.systems.graphbig.system.PropertyGraph`) through
per-vertex property arrays, in the bulk-synchronous vertex-centric style
of the original benchmark suite: a task queue of active vertices, one
"process vertex" sweep per superstep.  Every kernel runs the one body
of its algorithm in :mod:`repro.algorithms` (BFS, Bellman-Ford,
PageRank, hash-min WCC, Shiloach-Vishkin here; CDLP, LCC, k-core and
MIS through :class:`~repro.systems.base.GraphSystem`, which hands
their facts to the pricing functions below); what is GraphBIG's about
them is the pricing, with every vertex visit paying
:data:`PROPERTY_ACCESS_COST`.  The property graph keeps in-edge
lists as well as out-edge lists: the in-arcs a BFS, Bellman-Ford or
WCC pull reads are ``pg.out.transposed()``, ``pg.out`` itself on
undirected input (symmetrized).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import bfs_rounds
from repro.algorithms.cc import shiloach_vishkin
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import bellman_ford_rounds
from repro.algorithms.wcc import hashmin_rounds
from repro.graph.csr import CSRGraph
from repro.machine.threads import WorkProfile

__all__ = ["bfs_queue", "sssp_bellman_ford", "pagerank_jacobi",
           "wcc_hashmin", "cdlp_sync", "lcc_wedges",
           "kcore_props", "mis_props", "cc_sv",
           "PROPERTY_ACCESS_COST"]

#: Work units charged per vertex *visit* over and above its edge work:
#: GraphBIG routes every state change through the property-graph API
#: (locate record, check color, update fields), costing roughly this
#: many edge-traversal equivalents.  The term is why GraphBIG's
#: effective per-edge cost *improves* on dense graphs -- the overhead
#: amortizes over more edges per vertex -- which is the shape behind its
#: strong dota-league BFS in the paper's Fig 8.
PROPERTY_ACCESS_COST = 16.0


def bfs_queue(pg, root: int):
    """Task-queue BFS, priced as plain top-down: no bitmap, no direction
    switch.

    The vertex property record (level + parent + color) is touched for
    every out-arc of the queue, which is what the calibration's high
    per-edge constant prices, whichever direction the shared level loop
    (:func:`~repro.algorithms.bfs.bfs_rounds`) computed the level in.
    """
    parent, level, rounds = bfs_rounds(pg.out, root)
    profile = WorkProfile()
    max_deg = float(pg.out.out_degrees().max()) if pg.n else 0.0
    for queued, arcs in rounds:
        profile.add_round(units=arcs + PROPERTY_ACCESS_COST * queued,
                          memory_bytes=32.0 * arcs,
                          skew=min(max_deg / max(arcs, 1.0), 1.0))
    return parent, level, profile, {"depth": len(rounds)}


def sssp_bellman_ford(pg, root: int):
    """Queue-driven Bellman-Ford: active vertices relax all out-edges.

    Each superstep is one round of
    :func:`~repro.algorithms.sssp.bellman_ford_rounds`.
    """
    csr = pg.out
    dist, rounds = bellman_ford_rounds(csr, root)
    profile = WorkProfile()
    max_deg = float(csr.out_degrees().max()) if pg.n else 0.0
    for active, examined in rounds:
        profile.add_round(
            units=examined + PROPERTY_ACCESS_COST * active,
            memory_bytes=28.0 * examined,
            skew=min(max_deg / max(examined, 1.0), 1.0))
    return dist, profile, {"supersteps": len(rounds),
                           "relaxations": sum(e for _, e in rounds)}


def pagerank_jacobi(pg, damping: float, epsilon: float,
                    max_iterations: int):
    """Pure Jacobi sweeps with the homogenized L1 stopping criterion:
    the reference :func:`~repro.algorithms.pagerank.pagerank`, priced
    one vertex-and-arc pass per sweep.

    Ranks are normalized (init ``1/n``); with the homogenized absolute
    L1 threshold this puts GraphBIG's sweep count between GAP's
    Gauss-Seidel (fewer) and GraphMat's no-change float32 criterion and
    PowerGraph's unnormalized toolkit (more) -- the Fig 4 spread.
    """
    rank, iterations = pagerank(pg.out, damping, epsilon, max_iterations)
    profile = WorkProfile()
    m = pg.out.n_edges
    for _ in range(iterations):
        profile.add_round(units=m + pg.n,
                          memory_bytes=24.0 * m + 24.0 * pg.n, skew=0.05)
    return rank, iterations, profile


def wcc_hashmin(pg):
    """HashMin label propagation along every arc both ways
    (:func:`~repro.algorithms.wcc.hashmin_rounds` over the out- and
    in-edge lists, one pull when they are the same rows); a superstep
    visits each arc once per direction."""
    n = pg.n
    labels, rounds = hashmin_rounds(pg.out)
    profile = WorkProfile()
    m = 2 * pg.out.n_edges
    for _ in rounds:
        profile.add_round(units=m + n, memory_bytes=16.0 * m, skew=0.05)
    return labels, len(rounds), profile


def cdlp_sync(pg, iterations: int) -> tuple[WorkProfile, int]:
    """Synchronous label propagation (Graphalytics CDLP semantics):
    every superstep visits each arc and vertex record once."""
    profile = WorkProfile()
    m = pg.out.n_edges
    for _ in range(iterations):
        profile.add_round(units=m + pg.n, memory_bytes=32.0 * m, skew=0.08)
    return profile, iterations


def _view_profile(pg) -> WorkProfile:
    """A profile whose first round builds the simple view: every arc
    and every vertex record visited once."""
    profile = WorkProfile()
    profile.add_round(units=pg.out.n_edges + PROPERTY_ACCESS_COST * pg.n,
                      memory_bytes=16.0 * pg.out.n_edges, skew=0.05)
    return profile


def kcore_props(pg, view: CSRGraph, rounds: list
                ) -> tuple[WorkProfile, int]:
    """Level-synchronous k-core peel through the property records.

    GraphBIG keeps the residual degree as a vertex property and sweeps
    a task queue of sub-``k`` vertices per superstep; every peel and
    every neighbor decrement goes through the property API, so the
    per-visit overhead is charged on top of the edge work.
    """
    profile = _view_profile(pg)
    max_deg = float(view.out_degrees().max()) if pg.n else 0.0
    for peeled, arcs, _ in rounds:
        profile.add_round(units=arcs + PROPERTY_ACCESS_COST * peeled,
                          memory_bytes=32.0 * arcs,
                          skew=min(max_deg / max(arcs, 1.0), 1.0))
    return profile, len(rounds)


def mis_props(pg, view: CSRGraph, rounds: list
              ) -> tuple[WorkProfile, int]:
    """Pull-based Luby rounds over the vertex property array.

    Each superstep is a full vertex-centric sweep: every undecided
    vertex pulls the minimum priority of its undecided neighbors, wins
    if its own beats it, and winners' neighbors are retired through the
    property API.
    """
    profile = _view_profile(pg)
    arcs = view.n_edges
    for undecided, _, winner_arcs in rounds:
        profile.add_round(
            units=arcs + winner_arcs + PROPERTY_ACCESS_COST * undecided,
            memory_bytes=24.0 * (arcs + winner_arcs), skew=0.1)
    return profile, len(rounds)


def cc_sv(pg):
    """Shiloach-Vishkin components through the property records: the
    GAP ``wcc`` loop, but each label read/write is a property access."""
    m = pg.out.n_edges
    comp, rounds = shiloach_vishkin(pg.out)
    profile = WorkProfile()
    for _ in range(rounds):
        profile.add_round(units=2.0 * m + PROPERTY_ACCESS_COST * pg.n,
                          memory_bytes=24.0 * m, skew=0.05)
    return comp, rounds, profile


def lcc_wedges(pg, wedges: np.ndarray, blocks: list
               ) -> tuple[WorkProfile, None]:
    """Per-vertex clustering via neighborhood wedge checks.

    Work is charged per wedge (ordered neighbor pair), matching the
    vertex-centric implementation that intersects adjacency lists --
    the cost blow-up on dense graphs that makes GraphBIG's dota-league
    LCC the largest number in Table I (1073.7 s).
    """
    profile = WorkProfile()
    max_w = float(wedges.max()) if pg.n else 0.0
    for lo, hi in blocks:
        units = float(wedges[lo:hi].sum()) + (hi - lo)
        profile.add_round(units=units, memory_bytes=8.0 * units,
                          skew=min(max_w / max(units, 1.0), 1.0))
    return profile, None
