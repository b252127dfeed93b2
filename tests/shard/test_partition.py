"""Property-based tests of the shard partition (hypothesis).

The partition invariants are what the bit-identity contract rests on:
every vertex owned by exactly one shard, in contiguous ranges in shard
order, every arc executed exactly once (by its target's owner), and the
shard slices reassembling to the input graph byte-for-byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph
from repro.shard.engine import ShardEngine
from repro.shard.partition import partition_graph, shard_out_slice


def reassemble_out_slices(slices):
    """Join each row of the shard slices, in shard order, into one CSR:
    rows are sorted and shards own ascending target ranges, so the
    result must be byte-identical to the pattern the slices came
    from."""
    src = np.concatenate([sl.source_ids() for sl in slices])
    order = np.argsort(src, kind="stable")
    col_idx = np.concatenate([sl.col_idx for sl in slices])[order]
    degrees = np.sum([sl.out_degrees() for sl in slices], axis=0)
    row_ptr = np.concatenate(([0], np.cumsum(degrees)))
    return CSRGraph(row_ptr=row_ptr, col_idx=col_idx)


def owner_of(part, n):
    """The owning shard of every vertex, looked up range by range."""
    owner = np.full(n, -1, dtype=np.int64)
    for k in range(part.bounds.size - 1):
        lo, hi = part.owned(k)
        assert np.all(owner[lo:hi] == -1)
        owner[lo:hi] = k
    return owner


def edge_balance(csr, part):
    """Arcs each shard executes."""
    return np.array([shard_out_slice(csr, part, k).col_idx.size
                     for k in range(part.bounds.size - 1)])


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


@given(csr_graphs(), shard_counts)
@settings(max_examples=80, deadline=None)
def test_each_vertex_has_one_owner(csr, n_shards):
    part = partition_graph(csr, n_shards)
    assert part.bounds.size == n_shards + 1
    assert np.all(owner_of(part, csr.n_vertices) >= 0)


@given(csr_graphs(), shard_counts)
@settings(max_examples=80, deadline=None)
def test_each_edge_assigned_exactly_once(csr, n_shards):
    """Every row's arcs split over the slices: per row, the slices'
    degrees add up to the input's, and each slice is an unweighted CSR
    over every vertex."""
    part = partition_graph(csr, n_shards)
    slices = [shard_out_slice(csr, part, k) for k in range(n_shards)]
    for sl in slices:
        assert sl.n_vertices == csr.n_vertices and sl.weights is None
    assert np.array_equal(sum(sl.out_degrees() for sl in slices),
                          csr.out_degrees())
    assert edge_balance(csr, part).sum() == csr.n_edges


@given(csr_graphs(), shard_counts)
@settings(max_examples=60, deadline=None)
def test_reassembly_is_byte_identical(csr, n_shards):
    part = partition_graph(csr, n_shards)
    slices = [shard_out_slice(csr, part, k) for k in range(n_shards)]
    back = reassemble_out_slices(slices)
    assert back.row_ptr.tobytes() == csr.row_ptr.tobytes()
    assert back.col_idx.tobytes() == csr.col_idx.tobytes()


@given(csr_graphs(), shard_counts)
@settings(max_examples=60, deadline=None)
def test_edge_blocks_balance_tolerance(csr, n_shards):
    """No shard exceeds ``m / n_shards + max_in_degree`` arcs: a split
    point can only overshoot by the degree of the vertex it lands on."""
    part = partition_graph(csr, n_shards)
    in_deg = np.bincount(csr.col_idx, minlength=csr.n_vertices)
    max_in = int(in_deg.max()) if csr.n_vertices else 0
    ceiling = csr.n_edges / n_shards + max_in
    assert int(edge_balance(csr, part).max(initial=0)) <= ceiling


@given(csr_graphs(), shard_counts)
@settings(max_examples=60, deadline=None)
def test_blocks_are_contiguous(csr, n_shards):
    """``partition_graph`` cuts ``[0, n)`` into contiguous ranges in
    shard order, push arcs follow their target's owner, and
    ``cut_edges`` counts the arcs whose source another shard owns."""
    part = partition_graph(csr, n_shards)
    bounds = part.bounds
    assert bounds.dtype == np.int64 and bounds.shape == (n_shards + 1,)
    assert bounds[0] == 0 and bounds[-1] == csr.n_vertices
    assert np.all(np.diff(bounds) >= 0)
    for k in range(n_shards):
        lo, hi = part.owned(k)
        sl = shard_out_slice(csr, part, k)
        assert np.all((sl.col_idx >= lo) & (sl.col_idx < hi))
    owner = owner_of(part, csr.n_vertices)
    src = np.repeat(np.arange(csr.n_vertices), np.diff(csr.row_ptr))
    assert part.cut_edges == int(np.count_nonzero(
        owner[src] != owner[csr.col_idx]))


@given(csr_graphs(), shard_counts)
@settings(max_examples=40, deadline=None)
def test_in_slices_cover_owned_rows_exactly(csr, n_shards):
    """The engine's pull slices: complete in-rows of the owned range,
    each in-arc appearing in exactly one shard's slice."""
    inn = CSRGraph.from_arrays(csr.col_idx, csr.source_ids(),
                               csr.n_vertices, weights=csr.weights)
    in_deg = np.diff(inn.row_ptr)
    with ShardEngine(csr, inn, n_shards=n_shards, inline=True) as engine:
        arrays = engine._arrays
        col_idx = []
        for k in range(n_shards):
            lo, hi = engine.partition.owned(k)
            assert np.array_equal(np.diff(arrays[f"i{k}_rp"]),
                                  in_deg[lo:hi])
            col_idx.append(arrays[f"i{k}_ci"])
    assert np.concatenate(col_idx).tobytes() == inn.col_idx.tobytes()


def test_partition_validation():
    csr = CSRGraph.from_arrays(np.array([0]), np.array([1]), 2)
    with pytest.raises(ConfigError):
        partition_graph(csr, 0)
