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

from repro.errors import ConfigError, ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.sweeps import LocalSweeps, SweepExecutor

__all__ = ["pagerank", "check_pagerank_params", "DEFAULT_EPSILON",
           "DEFAULT_DAMPING"]

DEFAULT_EPSILON = 6e-8
DEFAULT_DAMPING = 0.85
DEFAULT_MAX_ITERATIONS = 1000


def check_pagerank_params(damping: float, epsilon: float,
                          max_iterations: int) -> None:
    """Reject parameters no power iteration is defined for -- every
    PageRank here (this one and the four systems') calls it first.

    ``epsilon = 0`` is legal: Graphalytics runs a fixed number of
    sweeps that way.  The comparisons are written so NaN fails them.
    """
    if not 0.0 <= damping < 1.0:
        raise ConfigError(f"damping must be in [0, 1), got {damping}")
    if not epsilon >= 0.0:
        raise ConfigError(f"epsilon must be >= 0, got {epsilon}")
    if max_iterations < 1:
        raise ConfigError(
            f"max_iterations must be >= 1, got {max_iterations}")


def pagerank(graph: CSRGraph, damping: float = DEFAULT_DAMPING,
             epsilon: float = DEFAULT_EPSILON,
             max_iterations: int = DEFAULT_MAX_ITERATIONS,
             rank0: np.ndarray | None = None,
             sweeps: SweepExecutor | None = None
             ) -> tuple[np.ndarray, int]:
    """Return ``(ranks, iterations)``.

    ``ranks`` sums to 1; ``iterations`` is the number of power-iteration
    sweeps executed before the L1 criterion was met.  ``rank0`` (not
    modified) replaces the uniform starting vector: the warm start of
    :func:`repro.algorithms.incremental.pagerank_warm`.

    Each sweep over the arcs is one ``pagerank_sweep`` of ``sweeps``
    (in-process by default); the dangling mass and the L1 residual are
    always taken here, on the full vectors.
    """
    check_pagerank_params(damping, epsilon, max_iterations)
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
    if sweeps is None:
        sweeps = LocalSweeps(graph)
    rank = sweeps.begin_pagerank(rank)
    dangling = graph.out_degrees() == 0
    base = (1.0 - damping) / n
    for it in range(1, max_iterations + 1):
        dangling_mass = rank[dangling].sum() / n
        new_rank = sweeps.pagerank_sweep(rank, dangling_mass, base, damping)
        delta = np.abs(new_rank - rank).sum()
        rank = new_rank
        if delta < epsilon:
            return rank.copy(), it
    return rank.copy(), max_iterations
