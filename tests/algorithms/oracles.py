"""Oracles that share no code with the bodies the systems run.

Every system's BFS, WCC, MIS and LCC come from one body in
:mod:`repro.algorithms`, so checking a system against that body would
compare it with itself.  These are written independently: the push-only
level BFS and the whole-array hash-min as the reference and GraphBIG
ran them before the shared bodies (with the frontier primitives spelled
out as the NumPy idioms they replaced), a sequential greedy sweep, and
networkx's clustering.  :func:`multigraphs` draws the corners the
hypothesis suites hold the bodies to them on.
"""

import networkx as nx
import numpy as np
from hypothesis import strategies as st


def oracle_greedy(view, priorities):
    """Sequential greedy by increasing priority over the simple view."""
    order = np.argsort(priorities, kind="stable")
    in_set = np.zeros(view.n_vertices, dtype=bool)
    blocked = np.zeros(view.n_vertices, dtype=bool)
    for v in order:
        if blocked[v]:
            continue
        in_set[v] = True
        blocked[view.neighbors(v)] = True
    return in_set


def networkx_clustering(csr):
    """networkx's clustering of the undirected, loop-free graph of
    ``csr``'s arcs, one value per vertex: the Graphalytics LCC when
    every arc of ``csr`` has its reverse."""
    g = nx.Graph()
    g.add_nodes_from(range(csr.n_vertices))
    g.add_edges_from(zip(csr.source_ids().tolist(), csr.col_idx.tolist()))
    g.remove_edges_from(nx.selfloop_edges(g))
    want = nx.clustering(g)
    return np.array([want[i] for i in range(csr.n_vertices)])


@st.composite
def multigraphs(draw, min_n=0, max_n=24, max_m=80):
    """``(n, src, dst)`` of a random directed multigraph: self-loops,
    parallel arcs, pairs joined one way only, and ``m = 0`` all occur;
    in about half the draws the max id is left isolated."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    isolate_max = n > 1 and draw(st.booleans())
    hi = n - 2 if isolate_max else n - 1
    m = draw(st.integers(min_value=0, max_value=max_m if n else 0))
    ends = st.lists(st.integers(0, max(hi, 0)), min_size=m, max_size=m)
    return (n, np.array(draw(ends), dtype=np.int64),
            np.array(draw(ends), dtype=np.int64))


def _sources(csr):
    return np.repeat(np.arange(csr.n_vertices, dtype=np.int64),
                     np.diff(csr.row_ptr))


def oracle_bfs(csr, root):
    """Push-only level BFS: every level expands all out-arcs of the
    frontier, and the lowest source claims each unvisited target.

    Returns ``(parent, level, rounds)`` with ``rounds`` one ``(frontier
    size, out-arcs)`` pair per expanded level, the last claiming nothing.
    """
    n = csr.n_vertices
    parent = np.full(n, -1, dtype=np.int64)
    level = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    parent[root] = root
    level[root] = 0
    visited[root] = True
    frontier = np.array([root], dtype=np.int64)
    rounds = []
    while frontier.size:
        starts = csr.row_ptr[frontier]
        counts = csr.row_ptr[frontier + 1] - starts
        total = int(counts.sum())
        rounds.append((int(frontier.size), total))
        if total == 0:
            break
        offsets = np.cumsum(counts) - counts
        slots = np.repeat(starts - offsets, counts) + np.arange(total)
        nbrs = csr.col_idx[slots]
        srcs = np.repeat(frontier, counts)
        fresh = ~visited[nbrs]
        nbrs, srcs = nbrs[fresh], srcs[fresh]
        order = np.lexsort((srcs, nbrs))
        nbrs, srcs = nbrs[order], srcs[order]
        first = np.ones(nbrs.size, dtype=bool)
        first[1:] = nbrs[1:] != nbrs[:-1]
        frontier = nbrs[first]
        parent[frontier] = srcs[first]
        visited[frontier] = True
        level[frontier] = len(rounds)
    return parent, level, rounds


def oracle_hashmin(csr):
    """Whole-array synchronous hash-min over every arc both ways, one
    ``np.minimum.at`` per round; returns ``(labels, rounds)``, the
    round that changes nothing counted."""
    n = csr.n_vertices
    src = np.concatenate([_sources(csr), csr.col_idx])
    dst = np.concatenate([csr.col_idx, _sources(csr)])
    labels = np.arange(n, dtype=np.int64)
    rounds = 0
    while True:
        rounds += 1
        new = labels.copy()
        np.minimum.at(new, dst, labels[src])
        if np.array_equal(new, labels):
            return labels, rounds
        labels = new
