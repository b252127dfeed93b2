"""Connected components by hook + compress: Shiloach-Vishkin and Afforest.

Both bodies here are the ones the systems run and price round by round
(GAP's ``wcc`` and GraphBIG's ``cc`` are Shiloach-Vishkin, GAP's ``cc``
is Afforest).  Hooks always take the minimum label, so the converged
labels are the Graphalytics-canonical "smallest member id" -- no
relabeling pass needed, and exact equality with
:func:`repro.algorithms.wcc.weakly_connected_components` (scipy
union-find, sharing no code with either) holds.

Afforest (Sutton, Ben-Nun & Barak) observes that on skewed graphs a
couple of *sampled* hook rounds -- each vertex links through its r-th
neighbor only -- already collapses most of the graph into one giant
component, after which the full edge list needs to be walked only for
the leftover vertices.  Its union structure is a label array with
min-hooking applied to the *roots* of the endpoint labels, then pointer
compression to a fixpoint.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.wcc import min_label_pull
from repro.errors import ConfigError
from repro.graph.csr import CSRGraph

__all__ = ["afforest", "afforest_rounds", "shiloach_vishkin",
           "DEFAULT_NEIGHBOR_ROUNDS"]

DEFAULT_NEIGHBOR_ROUNDS = 2


def shiloach_vishkin(out: CSRGraph) -> tuple[np.ndarray, int]:
    """Component labels over the arcs of ``out`` (direction ignored)
    and the number of rounds, each one hook over every arc
    (:func:`~repro.algorithms.wcc.min_label_pull`) and one pointer
    jump; the last round changes nothing."""
    comp = np.arange(out.n_vertices, dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        # Hook: every vertex pulls the smallest label around it, which
        # is every arc pulling both endpoints to the smaller label.
        new_comp = min_label_pull(out, comp)
        # Compress: pointer-jump labels toward the roots.
        new_comp = new_comp[new_comp]
        if np.array_equal(new_comp, comp):
            return comp, rounds
        comp = new_comp


def _hook_compress(comp: np.ndarray, s: np.ndarray, d: np.ndarray) -> int:
    """Min-hook the roots of ``comp[s]``/``comp[d]`` until stable;
    returns the rounds run, the last one finding nothing to hook.

    Hooking the root (``comp[high] = min(...)``, not ``comp[s]``) is
    what lets a later, smaller label absorb an entire already-merged
    set: compression re-points every member through the captured root.
    """
    rounds = 0
    while True:
        rounds += 1
        ls = comp[s]
        ld = comp[d]
        diff = ls != ld
        if not diff.any():
            return rounds
        low = np.minimum(ls[diff], ld[diff])
        high = np.maximum(ls[diff], ld[diff])
        np.minimum.at(comp, high, low)
        while True:
            nxt = comp[comp]
            if np.array_equal(nxt, comp):
                break
            comp[:] = nxt


def afforest_rounds(graph: CSRGraph, neighbor_rounds: int | None = None
                    ) -> tuple[np.ndarray, list[tuple[int, bool]]]:
    """Afforest labels and its passes over the arcs, in order.

    Returns ``(comp, passes)``: one ``(arcs, True)`` per hook round
    over ``arcs`` arcs, and one ``(m, False)`` for the scan that finds
    the arcs outside the giant component.  An empty graph makes no
    pass.  ``neighbor_rounds`` sampled rounds run first (``None`` is
    :data:`DEFAULT_NEIGHBOR_ROUNDS`, 0 samples nothing, a negative
    count raises ``ConfigError``).
    """
    if neighbor_rounds is None:
        neighbor_rounds = DEFAULT_NEIGHBOR_ROUNDS
    if neighbor_rounds < 0:
        raise ConfigError(
            f"neighbor_rounds must be >= 0, got {neighbor_rounds}")
    n = graph.n_vertices
    comp = np.arange(n, dtype=np.int64)
    passes: list[tuple[int, bool]] = []
    if n == 0 or graph.n_edges == 0:
        return comp, passes
    src = graph.source_ids()
    dst = graph.col_idx
    deg = np.diff(graph.row_ptr)
    for r in range(neighbor_rounds):
        sampled = np.flatnonzero(deg > r)
        if sampled.size == 0:
            break
        rounds = _hook_compress(comp, sampled,
                                dst[graph.row_ptr[sampled] + r])
        passes += [(int(sampled.size), True)] * rounds
    # Skip the inside of the biggest sampled component: those edges can
    # only re-derive a label their endpoints already share.
    giant = int(np.bincount(comp, minlength=n).argmax())
    rest = (comp[src] != giant) | (comp[dst] != giant)
    passes.append((int(src.size), False))
    if rest.any():
        s = src[rest]
        passes += [(int(s.size), True)] * _hook_compress(comp, s, dst[rest])
    return comp, passes


def afforest(graph: CSRGraph,
             neighbor_rounds: int | None = None) -> np.ndarray:
    """Component label (minimum member id) per vertex.

    Directed arcs are treated as undirected links, matching weak
    connectivity; self-loops and duplicate edges hook harmlessly.
    """
    return afforest_rounds(graph, neighbor_rounds)[0]
