"""Reference community detection by label propagation (CDLP).

The Graphalytics CDLP specification (the "community detection uses label
propagation" note under Table II): every vertex starts with its own id
as label; each synchronous round it adopts the most frequent label among
its incoming neighbors, breaking ties toward the smallest label; run a
fixed number of rounds.  Deterministic by construction.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["cdlp", "DEFAULT_CDLP_ITERATIONS", "propagate_labels",
           "propagate_labels_once"]

DEFAULT_CDLP_ITERATIONS = 10


def propagate_labels_once(src: np.ndarray, dst: np.ndarray,
                          labels: np.ndarray, n: int) -> np.ndarray:
    """One synchronous round: mode of neighbor labels, min-label ties.

    Vectorized: sort (vertex, label) pairs, run-length encode to get per
    (vertex, label) frequencies, then take the per-vertex maximum of
    ``count * n + (n - 1 - label)`` -- highest count, ties to the
    smallest label -- with one ``maximum.reduceat``.  Labels are vertex
    ids (``< n``), which is what lets both steps pack into one int64.
    """
    if src.size == 0:
        return labels.copy()
    if int(n) * max(int(n), src.size) >= 2 ** 62:  # pragma: no cover
        raise ValueError(f"CDLP keys do not pack into int64 at n = {n}")
    v = dst
    lab = labels[src]
    # Equal (v, label) keys are interchangeable, so the sort need not be
    # stable.  (Sorting the key values and splitting them back with
    # ``divmod`` was slower than this gather: 64-bit integer division.)
    order = np.argsort(v * np.int64(n) + lab)
    v_s = v[order]
    lab_s = lab[order]
    # Run starts of equal (v, label) pairs.
    new_pair = np.ones(v_s.size, dtype=bool)
    new_pair[1:] = (v_s[1:] != v_s[:-1]) | (lab_s[1:] != lab_s[:-1])
    starts = np.flatnonzero(new_pair)
    counts = np.diff(np.append(starts, v_s.size))
    pair_v = v_s[starts]
    pair_lab = lab_s[starts]
    # Pairs are grouped by vertex already: reduce each group to its best
    # (count, reversed label) and read the label back out of the winner.
    new_v = np.ones(pair_v.size, dtype=bool)
    new_v[1:] = pair_v[1:] != pair_v[:-1]
    group_starts = np.flatnonzero(new_v)
    best = np.maximum.reduceat(counts * n + (n - 1 - pair_lab),
                               group_starts)
    out = labels.copy()
    out[pair_v[group_starts]] = n - 1 - best % n
    return out


def propagate_labels(src: np.ndarray, dst: np.ndarray, n: int,
                     iterations: int) -> np.ndarray:
    """``iterations`` synchronous rounds along the arcs ``src -> dst``,
    every vertex starting with its own id: the one CDLP loop the
    reference and every system run (each prices ``iterations`` rounds
    its own way)."""
    labels = np.arange(n, dtype=np.int64)
    for _ in range(iterations):
        labels = propagate_labels_once(src, dst, labels, n)
    return labels


def cdlp(graph: CSRGraph, iterations: int = DEFAULT_CDLP_ITERATIONS
         ) -> np.ndarray:
    """Run ``iterations`` synchronous label-propagation rounds."""
    return propagate_labels(graph.source_ids(), graph.col_idx,
                            graph.n_vertices, iterations)
