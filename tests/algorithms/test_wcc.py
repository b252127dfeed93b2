"""Reference WCC vs. networkx, and the hash-min body vs. its oracle."""

import networkx as nx
import numpy as np
from hypothesis import given, settings

from repro.algorithms.wcc import (
    canonical_component_labels,
    hashmin_rounds,
    weakly_connected_components,
)
from repro.graph.csr import CSRGraph
from tests.algorithms.oracles import multigraphs, oracle_hashmin


def test_two_components():
    csr = CSRGraph.from_arrays(np.array([0, 2]), np.array([1, 3]), 5)
    labels = weakly_connected_components(csr)
    assert labels.tolist() == [0, 0, 2, 2, 4]


def test_direction_ignored():
    """Weak connectivity: a->b joins them regardless of direction."""
    csr = CSRGraph.from_arrays(np.array([1]), np.array([0]), 2)
    labels = weakly_connected_components(csr)
    assert labels.tolist() == [0, 0]


def test_matches_networkx(patents_small):
    csr = CSRGraph.from_edge_list(patents_small)
    labels = weakly_connected_components(csr)
    g = nx.DiGraph()
    g.add_nodes_from(range(csr.n_vertices))
    src = csr.source_ids()
    g.add_edges_from(zip(src.tolist(), csr.col_idx.tolist()))
    for comp in nx.weakly_connected_components(g):
        comp = sorted(comp)
        assert np.all(labels[comp] == comp[0])


def test_canonical_labels_idempotent(kron10_csr):
    labels = weakly_connected_components(kron10_csr)
    assert np.array_equal(canonical_component_labels(labels), labels)


def test_canonical_relabeling():
    raw = np.array([5, 5, 2, 2, 5])
    got = canonical_component_labels(raw)
    assert got.tolist() == [0, 0, 2, 2, 0]


def test_empty():
    got = canonical_component_labels(np.array([], dtype=np.int64))
    assert got.size == 0


@given(multigraphs())
@settings(max_examples=100, deadline=None)
def test_hashmin_matches_whole_array_oracle(graph):
    """The pull over out- and in-rows gives the oracle's labels and
    round count on the directed multigraph, with the in-arcs transposed
    lazily or a stored transpose attached, and on its symmetrization
    pulled once."""
    n, src, dst = graph
    directed = CSRGraph.from_arrays(src, dst, n)
    stored = CSRGraph.from_arrays(src, dst, n)
    stored.attach_transpose(CSRGraph.from_arrays(dst, src, n))
    sym = CSRGraph.from_arrays(np.concatenate([src, dst]),
                               np.concatenate([dst, src]), n,
                               symmetric=True)
    want_labels, want_rounds = oracle_hashmin(directed)
    assert want_labels.tobytes() == \
        weakly_connected_components(directed).tobytes()
    for out in (directed, stored, sym):
        labels, rounds = hashmin_rounds(out)
        assert labels.tobytes() == want_labels.tobytes()
        assert len(rounds) == want_rounds
        assert [a for _, a in rounds] == [2 * src.size] * want_rounds
        assert rounds[-1][0] == 0 and all(c for c, _ in rounds[:-1])
