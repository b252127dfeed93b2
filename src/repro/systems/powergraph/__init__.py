"""PowerGraph reimplementation.

"PowerGraph, a library and programming model for distributed (and
shared memory) graph-parallel computation ... Parallelism is achieved
via a combination of OpenMP and light-weight, user-level threads called
fibers.  PowerGraph uses a novel storage scheme on top of CSR."
(paper Sec. III-C)

Behavioural fidelity points:

* the gather-apply-scatter (GAS) abstraction executed by a synchronous
  engine over a random *vertex-cut* edge partitioning, with
  master/mirror replication whose synchronization cost is charged per
  superstep -- the fixed overhead that makes PowerGraph slowest on
  small graphs (Figs 3-4) yet lets it handle dota-league's high-degree
  vertices gracefully (Sec. IV-C).  Ingest places each arc on a random
  partition, counts replicas with
  :func:`repro.systems.powergraph.system.replica_counts`, and keeps the
  two numbers it prices: the replication factor and the mirror count;
* SSSP, WCC and the BFS below are min-programs, each named by what an
  arc adds (its weight, nothing, one hop respectively); on undirected
  input WCC runs on the same engine as SSSP, whose arcs are already
  symmetrized;
* **no BFS reference implementation** in its toolkits (Figs 2 and 8
  omit it); Graphalytics drives PowerGraph BFS through a
  distance-propagation GAS program, exposed here only via
  :meth:`~repro.systems.powergraph.system.PowerGraphSystem.run_toolkit_extension`;
* file read and graph ingest (partitioning) are fused -- construction
  is not separately measurable.
"""

from repro.systems.powergraph.system import PowerGraphSystem

__all__ = ["PowerGraphSystem"]
