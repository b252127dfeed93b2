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
    in GAP's ``builder.h`` produces).  On undirected input ``inn`` is
    ``out`` itself: GAP keeps no inverse of a symmetrized graph, whose
    rows already hold each vertex's sorted in-neighbours."""

    out: CSRGraph
    inn: CSRGraph
    n: int
    directed: bool

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
    no transpose: ``inn`` is ``out``.
    """
    profile = WorkProfile()
    el = edges if directed else edges.symmetrized()
    m = el.n_edges
    # Pass 1: degree histogram; pass 2: placement; pass 3: transpose.
    profile.add_round(units=m, memory_bytes=16.0 * m, skew=0.05)
    out = CSRGraph.from_arrays(el.src, el.dst, el.n_vertices,
                               weights=el.weights)
    profile.add_round(units=m, memory_bytes=24.0 * m, skew=0.05)
    # The transpose is from_arrays(el.dst, el.src)'s bytes, no sort.
    inn = out.transposed() if directed else out
    profile.add_round(units=m, memory_bytes=24.0 * m, skew=0.05)
    return GapGraph(out=out, inn=inn, n=el.n_vertices,
                    directed=directed), profile
