"""Graph partitioners for the sharded execution engine.

Three strategies, all producing the same two exact maps:

* ``owner[v]`` -- the shard that *masters* vertex ``v`` (bottom-up BFS
  scans and the PageRank rank slices are grouped by master, so every
  destination's full in-neighbor list lives on one shard and per-vertex
  accumulation order matches the serial kernels);
* ``edge_shard[e]`` -- the shard that executes arc ``e`` in push-style
  supersteps (top-down BFS, SSSP relaxation), indexed in the graph's
  global ``(src, dst)``-sorted arc order.

``blocks`` and ``edge_blocks`` are the 1-D vertex partitioners the
shared-memory systems use (contiguous ranges; the latter balances arc
counts via the in-degree prefix sum, GAP's trick for skewed Kronecker
graphs).  ``vertex_cut`` is PowerGraph's greedy heuristic (Gonzalez et
al., OSDI'12): edges are placed one chunk at a time on the least-loaded
shard that already hosts a replica of an endpoint, which bounds the
replication factor on power-law graphs.  :func:`replica_counts` is the
one replica census: the block strategies and PowerGraph's random
ingress (``repro.systems.powergraph``) both count with it.

Every strategy is exact: each vertex has exactly one owner, each arc
exactly one executing shard, and the per-shard CSR slices reassemble
byte-identically to the input (property-tested with hypothesis in
``tests/shard/test_partition.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph

__all__ = ["ShardPartition", "ShardSlice", "partition_graph",
           "contiguous_blocks", "balanced_edge_blocks",
           "greedy_vertex_cut", "shard_out_slice", "shard_in_slice",
           "replica_counts",
           "PARTITION_STRATEGIES", "VERTEX_CUT_CHUNK"]

PARTITION_STRATEGIES = ("blocks", "edge_blocks", "vertex_cut")

#: Greedy vertex-cut placement batch: decisions within a chunk see the
#: replica table as of the chunk start (PowerGraph's distributed ingress
#: is equally stale), which keeps placement vectorized and deterministic.
VERTEX_CUT_CHUNK = 8192


@dataclass(frozen=True)
class ShardPartition:
    """An exact assignment of vertices and arcs to ``n_shards`` shards."""

    strategy: str
    n_shards: int
    n_vertices: int
    n_edges: int
    #: ``int64[n]`` master shard of every vertex.
    owner: np.ndarray
    #: ``int64[m]`` executing shard of every arc (global arc order).
    edge_shard: np.ndarray
    #: Arcs whose endpoints are not both mastered on the executing
    #: shard -- each one moves a (vertex id, value) message per round.
    cut_edges: int
    #: Mean number of shards hosting a replica of each vertex (>= 1.0;
    #: exactly 1.0 for the block strategies' interior vertices).
    replication_factor: float


@dataclass(frozen=True)
class ShardSlice:
    """One shard's CSR slice: same row space, only its own arcs.

    ``slot_map`` carries each local arc's global slot index, which is
    what makes the slice losslessly reassemblable (and lets tests prove
    byte-identity of the decomposition).
    """

    row_ptr: np.ndarray
    col_idx: np.ndarray
    weights: np.ndarray | None
    slot_map: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.col_idx.size)


def _validate(csr: CSRGraph, n_shards: int) -> None:
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    if csr.n_vertices < 1:
        raise ConfigError("cannot partition an empty graph")


def replica_counts(src: np.ndarray, dst: np.ndarray, part: np.ndarray,
                   n_vertices: int, n_parts: int) -> np.ndarray:
    """Parts hosting each vertex, when arc ``src[e] -> dst[e]`` is
    placed on part ``part[e]``: a vertex is replicated onto every part
    that holds one of its arcs, so this counts its distinct parts (0 for
    a vertex with no arc).  Counted on an ``n_vertices x n_parts``
    table of flags (``n * P`` bytes), so nothing is sorted."""
    hosts = np.zeros((n_vertices, n_parts), dtype=bool)
    hosts[src, part] = True
    hosts[dst, part] = True
    return np.count_nonzero(hosts, axis=1)


def _owner_from_bounds(bounds: np.ndarray, n_shards: int) -> np.ndarray:
    return np.repeat(np.arange(n_shards, dtype=np.int64),
                     np.diff(bounds))


def _finish_blocks(csr: CSRGraph, strategy: str, n_shards: int,
                   bounds: np.ndarray) -> ShardPartition:
    """Common tail of the two block strategies: arcs follow their
    destination's owner, so push slices and pull slices cover the same
    arc sets and block merges are duplicate-free."""
    owner = _owner_from_bounds(bounds, n_shards)
    edge_shard = owner[csr.col_idx]
    cut = int(np.count_nonzero(owner[csr.source_ids()] != edge_shard))
    # Block interiors stay single-homed; a vertex with no arc still has
    # its master.
    replicas = np.maximum(replica_counts(csr.source_ids(), csr.col_idx,
                                         edge_shard, csr.n_vertices,
                                         n_shards), 1)
    return ShardPartition(
        strategy=strategy, n_shards=n_shards,
        n_vertices=csr.n_vertices, n_edges=csr.n_edges,
        owner=owner, edge_shard=edge_shard, cut_edges=cut,
        replication_factor=float(replicas.mean()))


def contiguous_blocks(csr: CSRGraph, n_shards: int) -> ShardPartition:
    """Equal-width contiguous vertex ranges (1-D block distribution)."""
    _validate(csr, n_shards)
    n = csr.n_vertices
    bounds = (np.arange(n_shards + 1, dtype=np.int64) * n) // n_shards
    return _finish_blocks(csr, "blocks", n_shards, bounds)


def balanced_edge_blocks(csr: CSRGraph, n_shards: int) -> ShardPartition:
    """Contiguous vertex ranges balancing *arc* counts per shard.

    Splits the in-degree prefix sum at ``k * m / n_shards`` (arcs are
    executed by their destination's owner): on skewed Kronecker graphs
    equal vertex counts put nearly all arcs on the hub shards, and this
    is GAP's remedy.  Balance tolerance: no shard exceeds
    ``m / n_shards + max_in_degree`` arcs, since a split point can only
    overshoot by the degree of the vertex it lands on.
    """
    _validate(csr, n_shards)
    n = csr.n_vertices
    in_prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(csr.col_idx, minlength=n), out=in_prefix[1:])
    targets = (np.arange(n_shards + 1, dtype=np.int64)
               * csr.n_edges) // n_shards
    bounds = np.searchsorted(in_prefix, targets, side="left")
    bounds = np.maximum.accumulate(bounds).astype(np.int64)
    bounds[0] = 0
    bounds[-1] = n
    return _finish_blocks(csr, "edge_blocks", n_shards, bounds)


def greedy_vertex_cut(csr: CSRGraph, n_shards: int,
                      chunk: int = VERTEX_CUT_CHUNK) -> ShardPartition:
    """PowerGraph's greedy edge placement (chunked, deterministic).

    For each arc ``(u, v)`` pick, among the shards already hosting a
    replica of ``u`` or ``v`` (their intersection when non-empty), the
    least loaded; place on the globally least-loaded shard when neither
    endpoint is placed yet.  Ties break to the lowest shard id, so the
    cut is a pure function of the graph and ``n_shards``.
    """
    _validate(csr, n_shards)
    if chunk < 1:
        raise ConfigError(f"chunk must be >= 1, got {chunk}")
    n, m = csr.n_vertices, csr.n_edges
    src = csr.source_ids()
    dst = csr.col_idx
    replicas = np.zeros((n, n_shards), dtype=bool)
    load = np.zeros(n_shards, dtype=np.int64)
    edge_shard = np.empty(m, dtype=np.int64)
    # Lexicographic argmin over (load, shard id): bias each shard's load
    # by its id so np.argmin's first-minimum rule is the tie-break.
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        ru = replicas[src[lo:hi]]
        rv = replicas[dst[lo:hi]]
        both = ru & rv
        either = ru | rv
        cand = np.where(both.any(axis=1)[:, None], both,
                        np.where(either.any(axis=1)[:, None], either,
                                 True))
        scores = np.where(cand, load[None, :] * np.int64(n_shards)
                          + np.arange(n_shards, dtype=np.int64),
                          np.iinfo(np.int64).max)
        pick = np.argmin(scores, axis=1).astype(np.int64)
        edge_shard[lo:hi] = pick
        replicas[src[lo:hi], pick] = True
        replicas[dst[lo:hi], pick] = True
        load += np.bincount(pick, minlength=n_shards)
    # Master = lowest-id hosting shard; isolated vertices round-robin.
    hosted = replicas.any(axis=1)
    owner = np.where(hosted, np.argmax(replicas, axis=1),
                     np.arange(n, dtype=np.int64) % n_shards
                     ).astype(np.int64)
    n_replicas = replicas.sum(axis=1)
    replication = float(np.maximum(n_replicas, 1).mean())
    if m:
        own_src = owner[src]
        own_dst = owner[dst]
        cut = int(np.count_nonzero((own_src != edge_shard)
                                   | (own_dst != edge_shard)))
    else:
        cut = 0
    return ShardPartition(
        strategy="vertex_cut", n_shards=n_shards, n_vertices=n,
        n_edges=m, owner=owner, edge_shard=edge_shard, cut_edges=cut,
        replication_factor=replication)


_STRATEGY_FNS = {
    "blocks": contiguous_blocks,
    "edge_blocks": balanced_edge_blocks,
    "vertex_cut": greedy_vertex_cut,
}


def partition_graph(csr: CSRGraph, n_shards: int,
                    strategy: str = "edge_blocks") -> ShardPartition:
    """Partition ``csr`` with the named strategy."""
    fn = _STRATEGY_FNS.get(strategy)
    if fn is None:
        raise ConfigError(
            f"unknown partition strategy {strategy!r} "
            f"(choose from {PARTITION_STRATEGIES})")
    return fn(csr, n_shards)


# ----------------------------------------------------------------------
# Per-shard CSR slices
# ----------------------------------------------------------------------
def shard_out_slice(csr: CSRGraph, part: ShardPartition,
                    shard: int) -> ShardSlice:
    """The push slice: every row, restricted to this shard's arcs.

    ``np.flatnonzero`` preserves the global arc order, so each row's
    surviving neighbor list keeps its sorted order and the slice is a
    well-formed CSR over the full vertex space.
    """
    slots = np.flatnonzero(part.edge_shard == shard)
    srcs = csr.source_ids()[slots]
    row_ptr = np.zeros(csr.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(srcs, minlength=csr.n_vertices),
              out=row_ptr[1:])
    weights = (csr.weights[slots] if csr.weights is not None else None)
    return ShardSlice(row_ptr=row_ptr, col_idx=csr.col_idx[slots],
                      weights=weights, slot_map=slots)


def shard_in_slice(inn: CSRGraph, part: ShardPartition, shard: int
                   ) -> tuple[np.ndarray, ShardSlice]:
    """The pull slice: the *complete* in-rows of the mastered vertices.

    Returns ``(owned_ids, slice)`` where ``slice.row_ptr`` is local
    (``len(owned_ids) + 1`` entries).  Keeping whole rows is what makes
    bottom-up early-exit counts and PageRank's per-destination
    accumulation order identical to the serial kernels.  When the owned
    ids are one contiguous range (as under the block strategies) the
    slice is a :meth:`~repro.graph.csr.CSRGraph.row_block` of
    ``inn``: its arcs and weights are views, not copies.
    """
    owned = np.flatnonzero(part.owner == shard)
    if owned.size and owned[-1] - owned[0] + 1 == owned.size:
        lo, hi = int(owned[0]), int(owned[-1]) + 1
        block = inn.row_block(lo, hi)
        a0 = int(inn.row_ptr[lo])
        return owned, ShardSlice(
            row_ptr=block.row_ptr, col_idx=block.col_idx,
            weights=block.weights,
            slot_map=np.arange(a0, a0 + block.n_edges, dtype=np.int64))
    in_src = inn.source_ids()
    slots = np.flatnonzero(part.owner[in_src] == shard)
    rows = np.searchsorted(owned, in_src[slots])
    row_ptr = np.zeros(owned.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=owned.size), out=row_ptr[1:])
    weights = (inn.weights[slots] if inn.weights is not None else None)
    return owned, ShardSlice(row_ptr=row_ptr, col_idx=inn.col_idx[slots],
                             weights=weights, slot_map=slots)
