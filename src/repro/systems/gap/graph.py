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
    in GAP's ``builder.h`` produces)."""

    out: CSRGraph
    inn: CSRGraph
    n: int
    directed: bool

    @property
    def n_arcs(self) -> int:
        return self.out.n_edges

    @property
    def in_arcs(self) -> CSRGraph:
        """The CSR a pull reads: ``inn``, or on undirected input ``out``
        itself -- symmetrized, so each row holds the same sorted
        neighbours and (neighbour, weight) multiset either way."""
        return self.inn if self.directed else self.out

    def out_degree(self) -> np.ndarray:
        return self.out.out_degrees()

    def nbytes(self) -> int:
        """Resident footprint: both CSR directions + degree caches."""
        return (self.out.nbytes() + self.inn.nbytes()
                + 2 * 8 * self.n)


def build_gap_graph(edges: EdgeList, directed: bool
                    ) -> tuple[GapGraph, WorkProfile]:
    """Construct the CSR pair, recording the construction work.

    GAP squishes the edge list (dedup is optional and off by default in
    the benchmark binaries, matching the Graph500 input contract), sorts
    it into CSR, then builds the transpose -- three passes over the
    tuples.
    """
    profile = WorkProfile()
    el = edges if directed else edges.symmetrized()
    m = el.n_edges
    # Pass 1: degree histogram; pass 2: placement; pass 3: transpose.
    profile.add_round(units=m, memory_bytes=16.0 * m, skew=0.05)
    out = CSRGraph.from_arrays(el.src, el.dst, el.n_vertices,
                               weights=el.weights)
    profile.add_round(units=m, memory_bytes=24.0 * m, skew=0.05)
    inn = out.transposed()  # from_arrays(el.dst, el.src)'s bytes, no sort
    profile.add_round(units=m, memory_bytes=24.0 * m, skew=0.05)
    return GapGraph(out=out, inn=inn, n=el.n_vertices,
                    directed=directed), profile
