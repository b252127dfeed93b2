"""Sharded multi-process execution of single kernels.

``repro.shard`` splits one graph across persistent worker processes so
a *single* BFS/SSSP/PageRank execution spans cores -- the complement of
:mod:`repro.parallel`, which fans out independent suite cells.  The
package keeps the frontier library's hard bit-identity contract: a
sharded run's output arrays, :class:`~repro.machine.threads.WorkProfile`
unit counts, and the suite REPORT.md are byte-identical to the serial
kernels at every shard count (see ``docs/sharding.md``).

Layers:

* :mod:`repro.shard.partition` -- the one partition: contiguous vertex
  ranges balancing arc counts, each shard executing the arcs into its
  own range, with exact per-shard CSR slices that reassemble
  byte-identically;
* :mod:`repro.shard.shm` -- zero-copy array publication over
  :mod:`multiprocessing.shared_memory` (the artifact cache's
  memmap-bundle idiom, re-targeted at shared segments);
* :mod:`repro.shard.ops` -- the per-shard superstep bodies, shared
  verbatim between worker processes, the parent's own shard 0 and the
  inline fallback;
* :mod:`repro.shard.engine` -- the persistent worker pool, semaphore
  protocol, and preallocated delta rings, merged by concatenation;
  implements :class:`repro.graph.sweeps.SweepExecutor`, so the serial
  control loops (direction-optimizing BFS, bitmap BFS, delta-stepping
  SSSP, PageRank) run sharded when handed an engine;
* :mod:`repro.shard.drivers` -- those four kernels under their
  ``shard_*`` names, engine passed through (no control flow of its
  own; kept for the benchmark's span boundary).
"""

from repro.shard.drivers import (
    shard_bfs_bitmap,
    shard_delta_stepping,
    shard_dobfs,
    shard_pagerank,
)
from repro.shard.engine import ShardEngine, resolve_shards
from repro.shard.partition import ShardPartition, partition_graph

__all__ = [
    "ShardEngine",
    "ShardPartition",
    "partition_graph",
    "resolve_shards",
    "shard_bfs_bitmap",
    "shard_delta_stepping",
    "shard_dobfs",
    "shard_pagerank",
]
