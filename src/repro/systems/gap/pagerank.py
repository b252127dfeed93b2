"""GAP PageRank: blocked forward sweeps with the homogenized L1 stop.

Stopping criterion (paper Sec. III-D): iterate until
``sum_k |p_k^(i) - p_k^(i-1)| < epsilon`` with ``epsilon = 6e-8``.

Reproduction note -- why GAP needs the fewest iterations (Fig 4): GAP's
pull-direction kernel sweeps vertices in index order, and this
implementation models that as a *block Gauss-Seidel*: vertices are
processed in ``N_BLOCKS`` ordered chunks, each chunk pulling from ranks
that earlier chunks already updated this sweep.  Using fresh values
within a sweep accelerates convergence over the pure Jacobi sweeps of
GraphBIG/GraphMat/PowerGraph, yielding the iteration ordering the paper
observes without touching the stopping criterion.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.pagerank import check_pagerank_params
from repro.graph.frontier import arc_sum_operator
from repro.machine.threads import WorkProfile
from repro.systems.gap.graph import GapGraph

__all__ = ["pagerank_gs", "DEFAULT_EPSILON", "DEFAULT_DAMPING"]

DEFAULT_EPSILON = 6e-8
DEFAULT_DAMPING = 0.85
DEFAULT_MAX_ITERATIONS = 1000
N_BLOCKS = 8


def pagerank_gs(graph: GapGraph, damping: float = DEFAULT_DAMPING,
                epsilon: float = DEFAULT_EPSILON,
                max_iterations: int = DEFAULT_MAX_ITERATIONS
                ) -> tuple[np.ndarray, int, WorkProfile]:
    """Return (ranks, iterations, profile)."""
    check_pagerank_params(damping, epsilon, max_iterations)
    n = graph.n
    inn = graph.inn
    out_deg = graph.out_degree().astype(np.float64)
    dangling = out_deg == 0
    inv_out = np.zeros(n)
    nz = ~dangling
    inv_out[nz] = 1.0 / out_deg[nz]

    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    profile = WorkProfile()
    bounds = np.linspace(0, n, N_BLOCKS + 1).astype(np.int64)
    nnz = inn.n_edges
    # Per block: its vertex range and the in-arcs of those rows.
    blocks = [(lo, hi, arc_sum_operator(inn.row_ptr, inn.col_idx, n,
                                        rows=(lo, hi)))
              for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
              if hi > lo]

    for it in range(1, max_iterations + 1):
        old = rank.copy()
        dangling_mass = rank[dangling].sum() / n
        share = rank * inv_out
        for lo, hi, arcs in blocks:
            # Pull contributions using *current* rank: blocks already
            # swept this iteration contribute their fresh values.
            rank[lo:hi] = base + damping * (arcs @ share + dangling_mass)
            share[lo:hi] = rank[lo:hi] * inv_out[lo:hi]
        # GAP renormalizes each sweep, keeping the probability mass exact
        # (Gauss-Seidel updates do not conserve it mid-stream).
        rank /= rank.sum()
        delta = float(np.abs(rank - old).sum())
        profile.add_round(units=nnz + n, memory_bytes=20.0 * nnz + 16.0 * n,
                          skew=0.05)
        if delta < epsilon:
            return rank, it, profile
    return rank, max_iterations, profile
