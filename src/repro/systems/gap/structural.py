"""GAP's components, k-core and MIS: the shared bodies, priced GAP's way.

GAP ships a components benchmark (``cc.cc``); EPG* does not time it in
the paper's figures, but the harness exposes it so users can extend the
comparison (the framework "is not specific to a particular algorithm",
Sec. III-D), together with the widened structural matrix.  The answers
come from :mod:`repro.algorithms` -- one body per algorithm for every
system -- and only the pricing here is GAP's: edge-centric rounds that
gather just the active vertices' arcs, with no per-vertex property
overhead.  Labels follow the Graphalytics convention (component id is
the smallest member vertex id).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.cc import afforest_rounds, shiloach_vishkin
from repro.algorithms.kcore import peel_cores
from repro.algorithms.mis import luby_rounds, mis_priorities
from repro.graph.simple import simple_undirected_view
from repro.machine.threads import WorkProfile
from repro.systems.gap.graph import GapGraph

__all__ = ["sv_components", "afforest_components", "kcore_peel",
           "mis_luby"]


def sv_components(graph: GapGraph) -> tuple[np.ndarray, int, WorkProfile]:
    """Shiloach-Vishkin (GAP's ``wcc``): (labels, rounds, profile), each
    round one hook over every arc plus a compress over the vertices."""
    out = graph.out
    m = out.n_edges
    comp, rounds = shiloach_vishkin(out.source_ids(), out.col_idx, graph.n)
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


def _simplify(graph: GapGraph):
    """The simple view plus its profile's first round: one sweep over
    the arcs plus the row build."""
    out = graph.out
    view = simple_undirected_view(out.source_ids(), out.col_idx, graph.n)
    profile = WorkProfile()
    profile.add_round(units=float(out.n_edges + graph.n),
                      memory_bytes=16.0 * out.n_edges, skew=0.05)
    max_deg = float(view.degrees.max()) if graph.n else 0.0
    return view, profile, max_deg


def kcore_peel(graph: GapGraph) -> tuple[np.ndarray, int, WorkProfile]:
    """k-core: (core numbers, rounds, profile).  A round gathers only
    the peeled vertices' neighborhoods -- never an ``O(n)`` rescan."""
    view, profile, max_deg = _simplify(graph)
    core, rounds = peel_cores(view)
    for peeled, arcs, _ in rounds:
        profile.add_round(units=float(arcs + peeled),
                          memory_bytes=24.0 * arcs,
                          skew=min(max_deg / max(arcs, 1.0), 0.2))
    return core, len(rounds), profile


def mis_luby(graph: GapGraph, seed: int | None = None
             ) -> tuple[np.ndarray, int, WorkProfile]:
    """MIS: (membership mask, rounds, profile).  A round gathers the
    undecided frontier's neighborhoods, then the winners' to knock
    their neighbors out."""
    view, profile, max_deg = _simplify(graph)
    in_set, rounds = luby_rounds(view, mis_priorities(graph.n, seed))
    for undecided, arcs, winner_arcs in rounds:
        profile.add_round(units=float(arcs + winner_arcs + undecided),
                          memory_bytes=24.0 * (arcs + winner_arcs),
                          skew=min(max_deg / max(arcs, 1.0), 0.2))
    return in_set, len(rounds), profile
