"""Graph data structures shared by all reimplemented systems.

This package provides the storage substrate the paper's five systems are
built on:

* :class:`~repro.graph.edgelist.EdgeList` -- the unordered edge tuples
  that the Graph500 specification calls the *edge list in RAM*; every
  system's "data structure construction" phase starts from one of these.
* :class:`~repro.graph.csr.CSRGraph` -- compressed sparse row adjacency,
  the representation used (per the paper, Sec. III-C) by the Graph500,
  GAP, and GraphBIG, and the one row-pointer type: GraphMat's
  doubly-compressed row index is a CSR's
  :meth:`~repro.graph.csr.CSRGraph.pull_rows`, and the simple
  undirected view and the shard push slices are CSRs too.
* :mod:`~repro.graph.validation` -- the Graph500 result-validation rules
  (BFS tree checks) plus SSSP/PageRank verifiers used by the test suite.
* :mod:`~repro.graph.frontier` + :mod:`~repro.graph.scratch` -- the
  shared frontier-primitive library (slot expansion, first-parent
  claims, relaxation scatter, dedup) every system's per-round hot loop
  runs on, with preallocated per-graph scratch (see
  ``docs/kernels.md`` for the bit-identity contract).
"""

from repro.graph.edgelist import EdgeList
from repro.graph.csr import CSRGraph
from repro.graph.scratch import KernelScratch, scratch_for

__all__ = ["EdgeList", "CSRGraph", "KernelScratch", "scratch_for"]
