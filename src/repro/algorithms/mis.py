"""Maximal independent set (deterministic Luby rounds): the one body
every system with an MIS round loop runs.

Luby's algorithm is randomized per round; to keep the PR-5 bit-identity
contract across five systems we fix the randomness *once*: a seeded
priority permutation drawn up front.  A vertex joins the set when its
priority beats every undecided neighbor's; its neighbors drop out.
With static priorities the rounds compute exactly the sequential greedy
MIS in priority order (the lexicographically-first MIS under the
permutation), so the result is unique given the seed -- every system
that shares :func:`mis_priorities` must produce the identical set.

Defined on the simple undirected view: self-loops are dropped (a
self-looped vertex would otherwise lose to itself forever and no round
could ever decide it), duplicate edges are harmless to a min.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.frontier import gather_slots, out_arc_count, pull_min
from repro.graph.scratch import scratch_for
from repro.graph.simple import simple_undirected_view

__all__ = [
    "DEFAULT_MIS_SEED",
    "mis_priorities",
    "maximal_independent_set",
    "luby_rounds",
]

#: Graph500's date-of-specification seed idiom; any fixed value works,
#: it just has to be the same one in every system.
DEFAULT_MIS_SEED = 20170402


def mis_priorities(n: int, seed: int | None = None) -> np.ndarray:
    """Seeded priority permutation of ``0..n-1`` (lower wins);
    ``seed=None`` is :data:`DEFAULT_MIS_SEED`."""
    rng = np.random.default_rng(DEFAULT_MIS_SEED if seed is None else seed)
    return rng.permutation(n).astype(np.int64)


def luby_rounds(view: CSRGraph, priorities: np.ndarray
                ) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Run the rounds on an already-simplified view.

    Returns ``(in_set, rounds)``: the membership mask and, per round,
    ``(undecided, undecided_arcs, winner_arcs)`` -- the vertices still
    undecided when it starts, the view arcs they own, and the arcs of
    the round's winners (whose far ends drop out), which is what the
    systems price.
    """
    n = view.n_vertices
    scratch = scratch_for(view, n, view.n_edges)
    priorities = np.asarray(priorities, dtype=np.int64)
    in_set = np.zeros(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)
    rounds: list[tuple[int, int, int]] = []
    sentinel = np.int64(n)
    rows, starts = view.pull_rows()
    while not decided.all():
        undecided = np.flatnonzero(~decided)
        # A decided neighbor offers the sentinel, which beats no one.
        offer = np.where(decided, sentinel, priorities)
        best = np.full(n, sentinel, dtype=np.int64)
        if rows.size:
            best[rows] = pull_min(starts, view.col_idx, None, offer)
        winners = ~decided & (priorities < best)
        # The undecided vertex with the globally smallest priority
        # always wins, so progress is guaranteed.
        in_set[winners] = True
        decided[winners] = True
        losers = view.col_idx[gather_slots(
            view.row_ptr, np.flatnonzero(winners), scratch).slots]
        decided[losers] = True
        rounds.append((int(undecided.size),
                       out_arc_count(view.row_ptr, undecided),
                       int(losers.size)))
    return in_set, rounds


def maximal_independent_set(graph: CSRGraph,
                            priorities: np.ndarray | None = None,
                            seed: int = DEFAULT_MIS_SEED) -> np.ndarray:
    """Membership mask of the (priority-unique) MIS."""
    view = simple_undirected_view(
        graph.source_ids(), graph.col_idx, graph.n_vertices)
    if priorities is None:
        priorities = mis_priorities(view.n_vertices, seed)
    return luby_rounds(view, priorities)[0]
