"""Property-based tests of the graph partitioners (hypothesis).

The partition invariants are what the bit-identity contract rests on:
every vertex mastered exactly once, every arc executed exactly once,
and the shard slices reassembling to the input graph byte-for-byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.shard.partition import (
    PARTITION_STRATEGIES,
    balanced_edge_blocks,
    contiguous_blocks,
    greedy_vertex_cut,
    partition_graph,
    replica_counts,
    shard_in_slice,
    shard_out_slice,
)


def replica_counts_by_sorting(src, dst, part, n_vertices, n_parts):
    """The census as it was before it counted on a table of flags:
    sort the distinct (vertex, part) keys, count them per vertex."""
    pairs = np.unique(np.concatenate([src * np.int64(n_parts) + part,
                                      dst * np.int64(n_parts) + part]))
    return np.bincount(pairs // n_parts, minlength=n_vertices)


@st.composite
def placed_arcs(draw):
    """Arcs (possibly none) over ``n`` vertices, any of which may have
    no arc, each placed on one of ``n_parts`` parts (``n_parts = 1``
    included)."""
    n = draw(st.integers(1, 12))
    n_parts = draw(st.integers(1, 6))
    m = draw(st.integers(0, 40))
    ids = st.integers(0, n - 1)
    src, dst, part = (np.array(draw(st.lists(values, min_size=m,
                                             max_size=m)), dtype=np.int64)
                      for values in (ids, ids, st.integers(0, n_parts - 1)))
    return src, dst, part, n, n_parts


@given(placed_arcs())
@settings(max_examples=200, deadline=None)
def test_replica_census_equals_the_sorting_census(case):
    got = replica_counts(*case)
    want = replica_counts_by_sorting(*case)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def reassemble_out_slices(slices, csr):
    """Scatter shard slices back into one CSR through their slot maps:
    the result must be byte-identical to ``csr``."""
    col_idx = np.empty(csr.n_edges, dtype=np.int64)
    weights = (np.empty(csr.n_edges) if csr.weights is not None
               else None)
    for sl in slices:
        col_idx[sl.slot_map] = sl.col_idx
        if weights is not None:
            weights[sl.slot_map] = sl.weights
    return CSRGraph(row_ptr=csr.row_ptr.copy(), col_idx=col_idx,
                    weights=weights)


def shard_vertices(part, shard):
    """Sorted ids of the vertices ``shard`` masters."""
    return np.flatnonzero(part.owner == shard)


def edge_balance(part):
    """Arcs each shard executes."""
    return np.bincount(part.edge_shard, minlength=part.n_shards)


@st.composite
def csr_graphs(draw, max_n=50, max_m=200):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(
            st.floats(0.001, 100.0, allow_nan=False),
            min_size=m, max_size=m)))
    return CSRGraph.from_arrays(np.array(src, dtype=np.int64),
                                np.array(dst, dtype=np.int64), n,
                                weights=weights)


shard_counts = st.integers(min_value=1, max_value=6)
strategies = st.sampled_from(PARTITION_STRATEGIES)


@given(csr_graphs(), shard_counts, strategies)
@settings(max_examples=80, deadline=None)
def test_each_vertex_has_one_owner(csr, n_shards, strategy):
    part = partition_graph(csr, n_shards, strategy)
    assert part.owner.shape == (csr.n_vertices,)
    assert np.all((part.owner >= 0) & (part.owner < n_shards))
    counts = np.zeros(csr.n_vertices, dtype=np.int64)
    for k in range(n_shards):
        counts[shard_vertices(part, k)] += 1
    assert np.all(counts == 1)


@given(csr_graphs(), shard_counts, strategies)
@settings(max_examples=80, deadline=None)
def test_each_edge_assigned_exactly_once(csr, n_shards, strategy):
    part = partition_graph(csr, n_shards, strategy)
    assert part.edge_shard.shape == (csr.n_edges,)
    assert np.all((part.edge_shard >= 0) & (part.edge_shard < n_shards))
    slot_count = np.zeros(csr.n_edges, dtype=np.int64)
    total = 0
    for k in range(n_shards):
        sl = shard_out_slice(csr, part, k)
        slot_count[sl.slot_map] += 1
        total += sl.n_edges
    assert total == csr.n_edges
    assert np.all(slot_count == 1)
    assert edge_balance(part).sum() == csr.n_edges


@given(csr_graphs(), shard_counts, strategies)
@settings(max_examples=60, deadline=None)
def test_reassembly_is_byte_identical(csr, n_shards, strategy):
    part = partition_graph(csr, n_shards, strategy)
    slices = [shard_out_slice(csr, part, k) for k in range(n_shards)]
    back = reassemble_out_slices(slices, csr)
    assert back.row_ptr.tobytes() == csr.row_ptr.tobytes()
    assert back.col_idx.tobytes() == csr.col_idx.tobytes()
    if csr.weights is None:
        assert back.weights is None
    else:
        assert back.weights.tobytes() == csr.weights.tobytes()


@given(csr_graphs(), shard_counts)
@settings(max_examples=60, deadline=None)
def test_edge_blocks_balance_tolerance(csr, n_shards):
    """No shard exceeds ``m / n_shards + max_in_degree`` arcs: a split
    point can only overshoot by the degree of the vertex it lands on."""
    part = balanced_edge_blocks(csr, n_shards)
    in_deg = np.bincount(csr.col_idx, minlength=csr.n_vertices)
    max_in = int(in_deg.max()) if csr.n_vertices else 0
    ceiling = csr.n_edges / n_shards + max_in
    assert int(edge_balance(part).max(initial=0)) <= ceiling


@given(csr_graphs(), shard_counts)
@settings(max_examples=60, deadline=None)
def test_blocks_are_contiguous(csr, n_shards):
    """Both block strategies master contiguous vertex ranges in shard
    order, and push arcs follow the destination's owner."""
    for part in (contiguous_blocks(csr, n_shards),
                 balanced_edge_blocks(csr, n_shards)):
        assert np.all(np.diff(part.owner) >= 0)
        assert np.array_equal(part.edge_shard, part.owner[csr.col_idx])


@given(csr_graphs(), shard_counts)
@settings(max_examples=40, deadline=None)
def test_vertex_cut_masters_are_hosts(csr, n_shards):
    """Every vertex with arcs is mastered on a shard that actually
    hosts one of its arcs (a replica), and the replication factor is
    at least 1."""
    part = greedy_vertex_cut(csr, n_shards)
    assert part.replication_factor >= 1.0 or csr.n_edges == 0
    src = csr.source_ids()
    hosted = np.zeros((csr.n_vertices, n_shards), dtype=bool)
    hosted[src, part.edge_shard] = True
    hosted[csr.col_idx, part.edge_shard] = True
    touched = hosted.any(axis=1)
    assert np.all(hosted[touched, part.owner[touched]])


@given(csr_graphs(), shard_counts, strategies)
@settings(max_examples=40, deadline=None)
def test_in_slices_cover_owned_rows_exactly(csr, n_shards, strategy):
    """Pull slices: complete in-rows of mastered vertices, each in-arc
    appearing in exactly one shard's slice."""
    inn = CSRGraph.from_arrays(csr.col_idx, csr.source_ids(),
                               csr.n_vertices, weights=csr.weights)
    part = partition_graph(csr, n_shards, strategy)
    in_deg = np.diff(inn.row_ptr)
    total = 0
    for k in range(n_shards):
        owned, sl = shard_in_slice(inn, part, k)
        assert np.array_equal(owned, shard_vertices(part, k))
        assert np.array_equal(np.diff(sl.row_ptr), in_deg[owned])
        total += sl.n_edges
    assert total == inn.n_edges


def test_partition_validation():
    csr = CSRGraph.from_arrays(np.array([0]), np.array([1]), 2)
    with pytest.raises(ConfigError):
        partition_graph(csr, 0, "blocks")
    with pytest.raises(ConfigError):
        partition_graph(csr, 2, "nope")
