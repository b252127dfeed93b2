"""The sharded execution engine's one partition: edge-balanced blocks.

Shard ``k`` owns the contiguous vertex range ``[bounds[k],
bounds[k + 1])`` -- the ranges come in shard order and cover ``[0, n)``
-- and executes every arc *into* a vertex it owns:

* its **pull** slice is the owned rows of the in-CSR, whole (bottom-up
  BFS scans and the PageRank rank slices need every destination's full
  in-neighbor list on one shard, so per-vertex accumulation order
  matches the serial kernels);
* its **push** slice (:func:`shard_out_slice`) is every row of the
  out-CSR restricted to arcs whose target it owns, in the graph's
  global ``(src, dst)``-sorted arc order.

So a target's candidates all come from one shard, and rings emitted in
shard order concatenate to sorted unique ids: merging them needs no
dedup and no sort.  The split points balance *arc* counts through the
in-degree prefix sum, GAP's remedy for skewed Kronecker graphs, where
equal vertex counts would put nearly all arcs on the hub shards.

The partition is an execution detail: it changes who computes a round,
never a result (``docs/sharding.md``).  PowerGraph's priced vertex cut
is the system's own (``repro.systems.powergraph.system.random_ingress``).
The slices are exact -- each arc on exactly one shard, reassembling
byte-identically to the input (property-tested with hypothesis in
``tests/shard/test_partition.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.graph.csr import CSRGraph

__all__ = ["ShardPartition", "partition_graph", "shard_out_slice"]


@dataclass(frozen=True)
class ShardPartition:
    """``n_shards`` contiguous vertex ranges, in shard order."""

    #: ``int64[n_shards + 1]``: shard ``k`` owns ``[bounds[k],
    #: bounds[k + 1])``.
    bounds: np.ndarray
    #: Arcs whose source another shard owns -- each one moves a
    #: (vertex id, value) message per round.
    cut_edges: int

    def owned(self, shard: int) -> tuple[int, int]:
        """The ``(lo, hi)`` vertex range ``shard`` owns."""
        return int(self.bounds[shard]), int(self.bounds[shard + 1])


def partition_graph(csr: CSRGraph, n_shards: int) -> ShardPartition:
    """Contiguous vertex ranges balancing *arc* counts per shard.

    Splits the in-degree prefix sum at ``k * m / n_shards`` (arcs are
    executed by their target's owner).  Balance tolerance: no shard
    exceeds ``m / n_shards + max_in_degree`` arcs, since a split point
    can only overshoot by the degree of the vertex it lands on.
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    n = csr.n_vertices
    if n < 1:
        raise ConfigError("cannot partition an empty graph")
    in_prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(csr.col_idx, minlength=n), out=in_prefix[1:])
    targets = (np.arange(n_shards + 1, dtype=np.int64)
               * csr.n_edges) // n_shards
    bounds = np.searchsorted(in_prefix, targets, side="left")
    bounds = np.maximum.accumulate(bounds).astype(np.int64)
    bounds[0] = 0
    bounds[-1] = n
    owner = np.repeat(np.arange(n_shards, dtype=np.int64), np.diff(bounds))
    cut = int(np.count_nonzero(owner[csr.source_ids()]
                               != owner[csr.col_idx]))
    return ShardPartition(bounds=bounds, cut_edges=cut)


def shard_out_slice(csr: CSRGraph, part: ShardPartition,
                    shard: int) -> CSRGraph:
    """The push slice: every row, restricted to arcs into the shard's
    range.

    ``np.flatnonzero`` preserves the global arc order, so each row's
    surviving neighbor list keeps its sorted order and the slice is a
    well-formed CSR over the full vertex space; a row of the input is
    its rows of the slices joined in shard order.  It carries no
    weights: top-down reads none, and no relax round pushes on a shard.
    """
    lo, hi = part.owned(shard)
    slots = np.flatnonzero((csr.col_idx >= lo) & (csr.col_idx < hi))
    row_ptr = np.zeros(csr.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(csr.source_ids()[slots],
                          minlength=csr.n_vertices), out=row_ptr[1:])
    return CSRGraph(row_ptr=row_ptr, col_idx=csr.col_idx[slots])
