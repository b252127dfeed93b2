"""``CSRGraph.transposed()`` is the one source of in-arcs.

A CSR built from a symmetrized arc list records that (``symmetric``)
and is its own transpose; a computed transpose knows its source as its
own transpose; a stored one is attached with ``attach_transpose``.
The record rides through pickles and ``weight_split`` and is dropped
by ``row_block``, whose rows are not a square graph.

What licenses the record: the computed transpose of a symmetrized
multigraph -- self-loops and parallel arcs of distinct weights
included -- has the original's ``row_ptr`` and ``col_idx``.  Only the
weights of parallel arcs can come in another order, and every pull
takes a minimum over them, which does not depend on order.
"""

import pickle
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from tests.algorithms.oracles import multigraphs


def _sym(n, src, dst, weights=None) -> CSRGraph:
    return CSRGraph.from_edge_list(EdgeList(src, dst, n, weights=weights),
                                   symmetrize=True)


def _square() -> CSRGraph:
    """A 4-cycle with a chord, a self-loop and a parallel pair, its
    parallel arcs weighted apart."""
    src = np.array([0, 1, 2, 3, 0, 2, 1])
    dst = np.array([1, 2, 3, 0, 2, 2, 2])
    return _sym(4, src, dst, np.arange(7, dtype=np.float64) + 0.5)


def test_a_symmetric_csr_is_its_own_transpose():
    csr = _square()
    assert csr.symmetric
    assert csr.transposed() is csr
    made = CSRGraph.from_arrays(csr.source_ids(), csr.col_idx, 4,
                                weights=csr.weights, symmetric=True)
    assert made.transposed() is made


def test_a_computed_transpose_knows_its_source():
    csr = CSRGraph.from_arrays(np.array([0, 0, 2]), np.array([1, 2, 1]), 3)
    assert not csr.symmetric
    inn = csr.transposed()
    assert inn is not csr
    assert csr.transposed() is inn
    assert inn.transposed() is csr
    assert inn.col_idx.tolist() == [0, 2, 0]


def test_a_stored_transpose_is_attached():
    csr = CSRGraph.from_arrays(np.array([0, 0, 2]), np.array([1, 2, 1]), 3,
                               weights=np.array([1.0, 2.0, 3.0]))
    stored = CSRGraph.from_arrays(np.array([1, 2, 1]), np.array([0, 0, 2]),
                                  3, weights=np.array([1.0, 2.0, 3.0]))
    assert csr.attach_transpose(stored) is stored
    assert csr.transposed() is stored
    assert stored.transposed() is csr


def test_the_link_back_holds_no_cycle():
    """A transpose keeps its source weakly: dropping the source frees
    it at once, with no garbage collection, and a transpose whose
    source is gone computes a fresh one."""
    csr = CSRGraph.from_arrays(np.array([0, 1]), np.array([1, 2]), 3)
    inn = csr.transposed()
    gone = weakref.ref(csr)
    del csr
    assert gone() is None
    again = inn.transposed()
    assert again.col_idx.tolist() == [1, 2]
    assert again.transposed() is inn


def test_the_record_survives_weight_split():
    csr = _square()
    for part in csr.weight_split(3.0):
        assert part.symmetric
        assert part.transposed() is part
    directed = CSRGraph(csr.row_ptr, csr.col_idx, csr.weights)
    assert not any(p.symmetric for p in directed.weight_split(3.0))


def test_the_record_survives_a_pickle_round_trip():
    csr = _square()
    clone = pickle.loads(pickle.dumps(csr))
    assert clone.symmetric
    assert clone.transposed() is clone
    plain = CSRGraph(csr.row_ptr, csr.col_idx, csr.weights)
    plain.transposed()
    clone = pickle.loads(pickle.dumps(plain))
    assert not clone.symmetric
    assert "_transposed" not in clone.__dict__


def test_row_block_drops_the_record():
    block = _square().row_block(1, 3)
    assert not block.symmetric


@st.composite
def symmetrized_multigraphs(draw):
    """A symmetrized weighted multigraph: self-loops and parallel arcs
    occur, and each input tuple weighs differently from every other
    (an arc and its reverse share one weight), so a parallel arc out
    of order would show."""
    n, src, dst = draw(multigraphs(min_n=1))
    if draw(st.booleans()) and src.size:
        # Repeat some arcs: parallel arcs with their own weights.
        k = draw(st.integers(1, src.size))
        src = np.concatenate([src, src[:k]])
        dst = np.concatenate([dst, dst[:k]])
    return _sym(n, src, dst, np.arange(src.size, dtype=np.float64) + 0.5)


@given(symmetrized_multigraphs())
@settings(max_examples=200, deadline=None)
def test_a_symmetrized_multigraphs_transpose_has_its_rows(csr):
    computed = CSRGraph(csr.row_ptr, csr.col_idx, csr.weights).transposed()
    assert computed.row_ptr.tobytes() == csr.row_ptr.tobytes()
    assert computed.col_idx.tobytes() == csr.col_idx.tobytes()
    # Each run of parallel arcs holds the same weights, in some order.
    keys = csr.source_ids() * csr.n_vertices + csr.col_idx
    got, want = (c.weights[np.lexsort((c.weights, keys))]
                 for c in (computed, csr))
    assert got.tobytes() == want.tobytes()
