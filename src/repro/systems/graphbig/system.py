"""GraphBIG system wrapper (property graph, fused read+build)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.homogenize import HomogenizedDataset
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.machine.threads import WorkProfile
from repro.systems.base import GraphSystem
from repro.systems.graphbig import kernels

__all__ = ["GraphBigSystem", "PropertyGraph"]


@dataclass
class PropertyGraph:
    """GraphBIG's structure: CSR adjacency; its per-vertex property
    records (the System G heritage) are counted, not held."""

    out: CSRGraph
    n: int

    @property
    def n_arcs(self) -> int:
        return self.out.n_edges

    def nbytes(self) -> int:
        """CSR plus the per-vertex property records the C++ framework
        allocates up-front: id, level, color, rank and distance, 8
        bytes each."""
        return self.out.nbytes() + 5 * 8 * self.n


class GraphBigSystem(GraphSystem):
    """GraphBIG (Sec. III-C item 3)."""

    name = "graphbig"
    provides = frozenset({"bfs", "sssp", "pagerank", "wcc", "cdlp", "lcc",
                          "kcore", "mis", "cc"})
    #: "GraphBIG reads in the file and generates the data structure
    #: simultaneously" -- construction is not separable (Fig 2 caption).
    separable_construction = False
    input_key = "graphbig"
    pricing = {"kcore": kernels.kcore_props, "mis": kernels.mis_props,
               "cdlp": kernels.cdlp_sync, "lcc": kernels.lcc_wedges}

    # -- loading -------------------------------------------------------
    def _build(self, edges: EdgeList, dataset: HomogenizedDataset):
        profile = WorkProfile()
        csr = CSRGraph.from_edge_list(edges, symmetrize=not dataset.directed)
        m = csr.n_edges
        # Vertex table allocation + edge insertion through the property
        # API; single fused pass (hence not separately measurable).
        profile.add_round(units=m + csr.n_vertices,
                          memory_bytes=48.0 * m, skew=0.05)
        meta = {"n": csr.n_vertices, "directed": dataset.directed}
        return csr.to_arrays_map("out_"), meta, profile

    def _n_arcs(self, data: PropertyGraph) -> int:
        return data.n_arcs

    def _assemble(self, arrays, meta) -> PropertyGraph:
        out = CSRGraph.from_arrays_map(arrays, "out_",
                                       symmetric=not meta["directed"])
        return PropertyGraph(out=out, n=int(meta["n"]))

    # -- kernels -------------------------------------------------------
    def _arcs(self, data: PropertyGraph):
        return data.out.source_ids(), data.out.col_idx

    def _run_bfs(self, loaded, root: int):
        parent, level, profile, stats = kernels.bfs_queue(loaded.data, root)
        return ({"parent": parent, "level": level}, profile, None,
                {"depth": float(stats["depth"])})

    def _run_sssp(self, loaded, root: int):
        dist, profile, stats = kernels.sssp_bellman_ford(loaded.data, root)
        return ({"dist": dist}, profile, None,
                {"supersteps": float(stats["supersteps"]),
                 "relaxations": float(stats["relaxations"])})

    def _run_pagerank(self, loaded, epsilon: float = 6e-8,
                      damping: float = 0.85, max_iterations: int = 1000):
        rank, iterations, profile = kernels.pagerank_jacobi(
            loaded.data, damping=damping, epsilon=epsilon,
            max_iterations=max_iterations)
        return ({"rank": rank}, profile, iterations, {})

    def _run_wcc(self, loaded):
        labels, rounds, profile = kernels.wcc_hashmin(loaded.data)
        return ({"labels": labels}, profile, rounds, {})

    def _run_cc(self, loaded):
        labels, rounds, profile = kernels.cc_sv(loaded.data)
        return ({"labels": labels}, profile, rounds, {})
