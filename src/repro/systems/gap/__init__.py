"""GAP Benchmark Suite reimplementation.

"A set of reference implementations for shared memory graph processing
... uses OpenMP to achieve parallelism and uses a CSR representation"
(paper Sec. III-C).  Distinctive features reproduced here:

* direction-optimizing BFS [Beamer et al., SC'12] with the paper's
  default parameters alpha=15, beta=18 (Sec. IV-C notes EPG* runs the
  defaults untuned);
* delta-stepping SSSP;
* PageRank with the homogenized L1 stopping criterion, converging in the
  fewest iterations of all systems (Fig 4);
* both out- and in-adjacency stored (CSR + transpose; on undirected
  input the CSR is its own transpose), so BFS and SSSP reuse one
  construction (Fig 2/3: "the platforms create the same data structure
  for both algorithms").
"""

from repro.systems.gap.system import GapSystem

__all__ = ["GapSystem"]
