"""Heuristic parameter tuning for GAP's tunable kernels.

Paper Sec. V: "Advances in parallel SSSP and BFS contain
parameterizations (Delta for SSSP and alpha and beta for BFS) which
affects performance depending on graph structure ... We plan to add
some level of heuristic parameter tuning as performed in [Beamer'12] to
the next iteration of our framework."  This module is that next
iteration: degree-distribution heuristics that pick alpha/beta/delta per
graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.systems.gap.graph import GapGraph

__all__ = ["TunedParameters", "heuristic_parameters"]


@dataclass(frozen=True)
class TunedParameters:
    alpha: float
    beta: float
    delta: float
    rationale: str


def heuristic_parameters(graph: GapGraph) -> TunedParameters:
    """Pick DO-BFS and delta-stepping parameters from graph shape.

    Rules distilled from Beamer et al.:

    * low-diameter, high-density graphs benefit from switching to
      bottom-up *early* and staying there (the switch condition is
      ``m_f > m_u / alpha``, so a *large* alpha switches sooner; a large
      beta -- return condition ``n_f < n / beta`` -- returns later).
      dota-league's 824-average-degree is the paper's example of GAP's
      defaults misfiring;
    * high-diameter sparse graphs (road-like, citation chains) should
      rarely go bottom-up (alpha below 1 effectively disables it);
    * delta should approximate (average weight) * (average degree) /
      2 so each bucket settles a healthy frontier.
    """
    deg = graph.out_degree().astype(np.float64)
    n = max(graph.n, 1)
    avg_deg = float(deg.mean()) if n else 0.0
    skew = float(deg.max() / max(avg_deg, 1e-12)) if n else 0.0
    density = avg_deg / n

    if avg_deg >= 100 or density >= 0.1:
        alpha, beta = 64.0, 64.0
        rationale = "dense graph: switch bottom-up early, stay longer"
    elif skew >= 20:
        alpha, beta = 15.0, 18.0
        rationale = "scale-free graph: Beamer defaults"
    else:
        alpha, beta = 0.25, 4.0
        rationale = "sparse low-skew graph: avoid bottom-up"

    if graph.out.weights is not None and graph.out.n_edges:
        avg_w = float(graph.out.weights.mean())
        delta = max(avg_w * avg_deg / 2.0, avg_w)
    else:
        delta = 0.25
    return TunedParameters(alpha=alpha, beta=beta, delta=delta,
                           rationale=rationale)

