"""Weakly connected components: the reference (scipy union-find) and the
one synchronous hash-min GraphBIG and GraphMat run."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph
from repro.graph.frontier import pull_min

__all__ = ["weakly_connected_components", "canonical_component_labels",
           "hashmin_rounds", "min_label_pull"]


def weakly_connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per vertex, canonicalized (see below)."""
    # Imported here, like sssp_dijkstra's: csgraph pulls in scipy.linalg.
    import scipy.sparse.csgraph as csgraph

    n = graph.n_vertices
    src = graph.source_ids()
    mat = sp.csr_matrix(
        (np.ones(graph.n_edges, dtype=np.int8), (src, graph.col_idx)),
        shape=(n, n))
    _, labels = csgraph.connected_components(
        mat, directed=True, connection="weak")
    return canonical_component_labels(labels)


def canonical_component_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel components by their minimum member vertex id.

    Systems produce arbitrary component ids; the Graphalytics convention
    (label = smallest vertex id in the component) makes outputs directly
    comparable, so both the reference and every system normalize to it.
    """
    labels = np.asarray(labels)
    n = labels.size
    if n == 0:
        return labels.astype(np.int64)
    mins = np.full(int(labels.max()) + 1, np.iinfo(np.int64).max,
                   dtype=np.int64)
    np.minimum.at(mins, labels, np.arange(n, dtype=np.int64))
    return mins[labels]


def min_label_pull(out: CSRGraph, labels: np.ndarray) -> np.ndarray:
    """Each vertex's minimum of its own label and its neighbours'
    labels, pulled with :func:`~repro.graph.frontier.pull_min` over the
    rows of ``out`` (out-neighbours) and of ``out.transposed()``
    (in-neighbours) -- pulled once when ``out`` is its own transpose:
    the step of hash-min and the hook of
    :func:`~repro.algorithms.cc.shiloach_vishkin`."""
    inn = out.transposed()
    new = labels.copy()
    for c in (out,) if inn is out else (out, inn):
        rows, starts = c.pull_rows()
        if rows.size:
            y = pull_min(starts, c.col_idx, None, labels)
            new[rows] = np.minimum(new[rows], y)
    return new


def hashmin_rounds(out: CSRGraph) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Synchronous hash-min over the arcs of ``out`` taken both ways.

    Every round each vertex keeps the minimum of its own label and its
    neighbours' labels from the round before (:func:`min_label_pull`).
    The loop stops on, and counts, the first round that changes
    nothing.

    Returns ``(labels, rounds)``: the minimum member id of each vertex's
    weak component, and per round ``(changed, arcs)``: how many labels
    dropped and how many arcs were pulled.
    """
    arcs = out.n_edges if out.symmetric else 2 * out.n_edges
    labels = np.arange(out.n_vertices, dtype=np.int64)
    rounds: list[tuple[int, int]] = []
    while True:
        new = min_label_pull(out, labels)
        changed = int(np.count_nonzero(new != labels))
        rounds.append((changed, arcs))
        if not changed:
            return labels, rounds
        labels = new
