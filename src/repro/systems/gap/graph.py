"""GAP's internal graph: CSR in both directions plus degree caches."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.machine.threads import WorkProfile

__all__ = ["GapGraph", "build_gap_graph"]


@dataclass
class GapGraph:
    """Out- and in-adjacency with cached degrees (what ``BuildGraph``
    in GAP's ``builder.h`` produces).  ``inn`` is ``out.transposed()``:
    ``out`` itself on undirected input, since GAP keeps no inverse of a
    symmetrized graph, whose rows already hold the in-neighbours."""

    out: CSRGraph
    n: int
    directed: bool

    @property
    def inn(self) -> CSRGraph:
        return self.out.transposed()

    @property
    def n_arcs(self) -> int:
        return self.out.n_edges

    def out_degree(self) -> np.ndarray:
        return self.out.out_degrees()

    def nbytes(self) -> int:
        """Resident footprint: each distinct CSR (a shared one counts
        once) + degree caches."""
        inn = 0 if self.inn is self.out else self.inn.nbytes()
        return self.out.nbytes() + inn + 2 * 8 * self.n


def build_gap_graph(edges: EdgeList, directed: bool
                    ) -> tuple[GapGraph, WorkProfile]:
    """Construct the CSR pair, recording the construction work.

    GAP squishes the edge list (dedup is optional and off by default in
    the benchmark binaries, matching the Graph500 input contract), sorts
    it into CSR, then builds the transpose -- three passes over the
    tuples.  Undirected input keeps the third pass's price but stores
    no transpose: ``out`` is its own.
    """
    profile = WorkProfile()
    out = CSRGraph.from_edge_list(edges, symmetrize=not directed)
    m = out.n_edges
    # Pass 1: degree histogram; pass 2: placement; pass 3: transpose
    # (``out.transposed()``, taken when first read).
    for memory_bytes in (16.0, 24.0, 24.0):
        profile.add_round(units=m, memory_bytes=memory_bytes * m,
                          skew=0.05)
    return GapGraph(out=out, n=out.n_vertices,
                    directed=directed), profile
