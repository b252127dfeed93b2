"""Oracles that share no code with the bodies the systems run.

Every system's MIS and LCC come from one body in
:mod:`repro.algorithms`, so checking a system against that body would
compare it with itself.  These are written independently: a sequential
greedy sweep and networkx's clustering.
"""

import networkx as nx
import numpy as np


def oracle_greedy(view, priorities):
    """Sequential greedy by increasing priority over the simple view."""
    order = np.argsort(priorities, kind="stable")
    in_set = np.zeros(view.n, dtype=bool)
    blocked = np.zeros(view.n, dtype=bool)
    for v in order:
        if blocked[v]:
            continue
        in_set[v] = True
        nbrs = view.indices[view.indptr[v]:view.indptr[v + 1]]
        blocked[nbrs] = True
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
