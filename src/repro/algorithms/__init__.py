"""Reference graph kernels.

These are the trusted, straightforward implementations of the
algorithms the study touches -- BFS, SSSP, PageRank (the paper's three
"building blocks", Sec. III-D), WCC, CDLP and LCC (needed by the
Graphalytics comparison in Tables I-II), plus the widened structural
matrix: triangle counting, k-core decomposition, maximal independent
set, and Afforest connected components.

Where the systems genuinely differ in algorithm -- GAP's and Graph500's
BFS, delta-stepping, PageRank, PowerGraph's GAS programs -- each has its
own implementation, validated against these in the test suite.  Where
they run the same algorithm with the same rounds -- GraphBIG's and
GraphMat's BFS, Bellman-Ford and hash-min WCC, CDLP, LCC, k-core, MIS,
Shiloach-Vishkin and Afforest components -- the body here is the one
they all run: it computes the answer and reports per-round facts, and
each system prices those facts its own way (``docs/algorithms.md``).
The cross-system tests check those against oracles that share no code
with the bodies (networkx, scipy union-find, the full-rescan peel, the
sequential greedy MIS, the push-only BFS and whole-array hash-min).
"""

from repro.algorithms.bfs import bfs_parents
from repro.algorithms.cc import afforest
from repro.algorithms.cdlp import cdlp
from repro.algorithms.incremental import (
    IncrementalBFS,
    IncrementalPageRank,
    IncrementalSSSP,
    RepairStats,
    pagerank_l1_bound,
    pagerank_warm,
)
from repro.algorithms.kcore import core_numbers, core_numbers_naive
from repro.algorithms.mis import maximal_independent_set, mis_priorities
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp_dijkstra
from repro.algorithms.tc import triangle_count
from repro.algorithms.wcc import weakly_connected_components

__all__ = [
    "bfs_parents",
    "sssp_dijkstra",
    "pagerank",
    "weakly_connected_components",
    "cdlp",
    "triangle_count",
    "core_numbers",
    "core_numbers_naive",
    "maximal_independent_set",
    "mis_priorities",
    "afforest",
    "IncrementalBFS",
    "IncrementalSSSP",
    "IncrementalPageRank",
    "RepairStats",
    "pagerank_warm",
    "pagerank_l1_bound",
]
