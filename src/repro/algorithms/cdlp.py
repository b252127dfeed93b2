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

    Vectorized: sort the packed ``vertex * b + label`` keys, run-length
    encode them to get per (vertex, label) frequencies, split only the
    run heads back with ``divmod``, then take the per-vertex maximum of
    ``count * b + (b - 1 - label)`` -- highest count, ties to the
    smallest label -- with one ``maximum.reduceat``.  The base ``b``
    exceeds every vertex id and label, which is what lets both steps
    pack into one int64.
    """
    if src.size == 0:
        return labels.copy()
    b = max(int(n), int(labels.max()) + 1)
    if b * max(b, src.size + 1) >= 2 ** 62:  # pragma: no cover
        raise ValueError(f"CDLP keys do not pack into int64 at base {b}")
    keys = np.sort(dst * np.int64(b) + labels[src])
    # Run starts of equal (v, label) pairs.
    new_pair = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new_pair[1:])
    starts = np.flatnonzero(new_pair)
    counts = np.diff(np.append(starts, keys.size))
    pair_v, pair_lab = np.divmod(keys[starts], b)
    # Pairs are grouped by vertex already: reduce each group to its best
    # (count, reversed label) and read the label back out of the winner.
    new_v = np.ones(pair_v.size, dtype=bool)
    np.not_equal(pair_v[1:], pair_v[:-1], out=new_v[1:])
    group_starts = np.flatnonzero(new_v)
    best = np.maximum.reduceat(counts * b + (b - 1 - pair_lab),
                               group_starts)
    out = labels.copy()
    out[pair_v[group_starts]] = b - 1 - best % b
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
