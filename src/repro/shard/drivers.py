"""The four kernels with a :class:`~repro.shard.engine.ShardEngine` as
their sweep executor, under the names the benchmark's span boundary
(``bench/trace.py``) wraps: engine third, its ``rounds`` /
``bytes_exchanged`` holding that one kernel's exchange on return.

There is no sharded control flow here or anywhere else: each function
is the serial kernel, called with the engine.  The module goes away
once a benchmark-only change re-points that boundary (ROADMAP item
1(b)).
"""

from __future__ import annotations

from repro.algorithms.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITERATIONS,
    pagerank,
)
from repro.systems.gap.bfs import DEFAULT_ALPHA, DEFAULT_BETA, dobfs
from repro.systems.gap.sssp import DEFAULT_DELTA, delta_stepping
from repro.systems.graph500.bfs import bfs_bitmap

__all__ = ["shard_dobfs", "shard_bfs_bitmap", "shard_delta_stepping",
           "shard_pagerank"]


def shard_dobfs(graph, root, engine, alpha=DEFAULT_ALPHA,
                beta=DEFAULT_BETA):
    return dobfs(graph, root, alpha, beta, engine)


def shard_bfs_bitmap(csr, root, engine):
    return bfs_bitmap(csr, root, engine)


def shard_delta_stepping(graph, root, engine, delta=DEFAULT_DELTA):
    return delta_stepping(graph, root, delta, engine)


def shard_pagerank(csr, engine, damping=DEFAULT_DAMPING,
                   epsilon=DEFAULT_EPSILON,
                   max_iterations=DEFAULT_MAX_ITERATIONS):
    return pagerank(csr, damping, epsilon, max_iterations, sweeps=engine)
