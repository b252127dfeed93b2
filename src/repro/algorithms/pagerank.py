"""Reference PageRank (pull-style power iteration, float64).

Uses the stopping criterion the paper homogenizes all systems to
(Sec. III-D): iterate until the L1 norm of the rank change,
``sum_k |p_k^(i) - p_k^(i-1)|``, drops below epsilon, with the paper's
default ``eps = 6e-8`` (~single-precision machine epsilon).

Dangling vertices (out-degree 0) redistribute their rank uniformly, the
standard formulation, so ranks always sum to 1.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph

__all__ = ["pagerank", "DEFAULT_EPSILON", "DEFAULT_DAMPING"]

DEFAULT_EPSILON = 6e-8
DEFAULT_DAMPING = 0.85
DEFAULT_MAX_ITERATIONS = 1000


def pagerank(graph: CSRGraph, damping: float = DEFAULT_DAMPING,
             epsilon: float = DEFAULT_EPSILON,
             max_iterations: int = DEFAULT_MAX_ITERATIONS,
             rank0: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Return ``(ranks, iterations)``.

    ``ranks`` sums to 1; ``iterations`` is the number of power-iteration
    sweeps executed before the L1 criterion was met.  ``rank0`` (not
    modified) replaces the uniform starting vector: the warm start of
    :func:`repro.algorithms.incremental.pagerank_warm`.

    Shares are divided once per vertex and expanded per arc (CSR order
    is source order); ``np.bincount(weights=)`` adds each destination's
    left to right in arc order, bit-identical to ``np.add.at`` into zeros.
    """
    n = graph.n_vertices
    if n == 0:
        return np.zeros(0), 0
    if rank0 is None:
        rank = np.full(n, 1.0 / n)
    else:
        rank = np.asarray(rank0, dtype=np.float64)
        if rank.shape != (n,):
            raise ValidationError(
                f"warm-start vector has shape {rank.shape}, graph has "
                f"{n} vertices")
    out_deg = graph.out_degrees()
    dangling = out_deg == 0
    # Dangling vertices repeat zero times; 1 only keeps 0/0 out of it.
    divisor = np.maximum(out_deg, 1).astype(np.float64)
    base = (1.0 - damping) / n
    for it in range(1, max_iterations + 1):
        contrib = np.bincount(
            graph.col_idx, minlength=n,
            weights=np.repeat(rank / divisor, out_deg))
        dangling_mass = rank[dangling].sum() / n
        new_rank = base + damping * (contrib + dangling_mass)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < epsilon:
            return rank, it
    return rank, max_iterations
