"""GAP's components, k-core and MIS: the shared bodies, priced GAP's way.

GAP ships a components benchmark (``cc.cc``); EPG* does not time it in
the paper's figures, but the harness exposes it so users can extend the
comparison (the framework "is not specific to a particular algorithm",
Sec. III-D), together with the widened structural matrix.  The answers
come from :mod:`repro.algorithms` -- one body per algorithm for every
system, k-core's and MIS's run by :class:`~repro.systems.base.GraphSystem`
-- and only the pricing here is GAP's: edge-centric rounds that
gather just the active vertices' arcs, with no per-vertex property
overhead.  Labels follow the Graphalytics convention (component id is
the smallest member vertex id).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.cc import afforest_rounds, shiloach_vishkin
from repro.graph.csr import CSRGraph
from repro.machine.threads import WorkProfile
from repro.systems.gap.graph import GapGraph

__all__ = ["sv_components", "afforest_components", "kcore_peel",
           "mis_luby"]


def sv_components(graph: GapGraph) -> tuple[np.ndarray, int, WorkProfile]:
    """Shiloach-Vishkin (GAP's ``wcc``): (labels, rounds, profile), each
    round one hook over every arc plus a compress over the vertices."""
    m = graph.out.n_edges
    comp, rounds = shiloach_vishkin(graph.out)
    profile = WorkProfile()
    for _ in range(rounds):
        profile.add_round(units=2.0 * m + graph.n, memory_bytes=24.0 * m,
                          skew=0.05)
    return comp, rounds, profile


def afforest_components(graph: GapGraph, neighbor_rounds: int | None = None
                        ) -> tuple[np.ndarray, int, WorkProfile]:
    """Afforest (GAP's faster ``cc``): (labels, hook rounds, profile).

    A couple of rounds hooking each vertex through its r-th
    out-neighbor only collapse most of a skewed graph into one giant
    component; the full edge list is then walked only where an endpoint
    still lies outside it.  Labels are minimum member ids, exactly
    matching :func:`sv_components`' output.
    """
    n = graph.n
    comp, passes = afforest_rounds(graph.out, neighbor_rounds)
    profile = WorkProfile()
    if not passes:
        profile.add_round(units=float(n), memory_bytes=8.0 * n, skew=0.0)
    for arcs, hook in passes:
        if hook:
            profile.add_round(units=2.0 * arcs + n,
                              memory_bytes=24.0 * arcs, skew=0.05)
        else:
            profile.add_round(units=float(arcs + n),
                              memory_bytes=16.0 * arcs, skew=0.05)
    return comp, sum(hook for _, hook in passes), profile


def _view_profile(graph: GapGraph) -> WorkProfile:
    """A profile whose first round builds the simple view: one sweep
    over the arcs plus the row build."""
    profile = WorkProfile()
    profile.add_round(units=float(graph.out.n_edges + graph.n),
                      memory_bytes=16.0 * graph.out.n_edges, skew=0.05)
    return profile


def kcore_peel(graph: GapGraph, view: CSRGraph, rounds: list
               ) -> tuple[WorkProfile, int]:
    """k-core's price: (profile, rounds).  A round gathers only the
    peeled vertices' neighborhoods -- never an ``O(n)`` rescan."""
    profile = _view_profile(graph)
    max_deg = float(view.out_degrees().max()) if graph.n else 0.0
    for peeled, arcs, _ in rounds:
        profile.add_round(units=float(arcs + peeled),
                          memory_bytes=24.0 * arcs,
                          skew=min(max_deg / max(arcs, 1.0), 0.2))
    return profile, len(rounds)


def mis_luby(graph: GapGraph, view: CSRGraph, rounds: list
             ) -> tuple[WorkProfile, int]:
    """MIS's price: (profile, rounds).  A round gathers the undecided
    frontier's neighborhoods, then the winners' to knock their
    neighbors out."""
    profile = _view_profile(graph)
    max_deg = float(view.out_degrees().max()) if graph.n else 0.0
    for undecided, arcs, winner_arcs in rounds:
        profile.add_round(units=float(arcs + winner_arcs + undecided),
                          memory_bytes=24.0 * (arcs + winner_arcs),
                          skew=min(max_deg / max(arcs, 1.0), 0.2))
    return profile, len(rounds)
