"""GAP Benchmark Suite system wrapper."""

from __future__ import annotations

import numpy as np

from repro.datasets.homogenize import HomogenizedDataset
from repro.errors import SystemCapabilityError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.systems.base import GraphSystem
from repro.systems.gap.bfs import DEFAULT_ALPHA, DEFAULT_BETA, dobfs
from repro.systems.gap.graph import GapGraph, build_gap_graph
from repro.systems.gap.pagerank import (
    DEFAULT_DAMPING,
    DEFAULT_EPSILON,
    pagerank_gs,
)
from repro.systems.gap.sssp import DEFAULT_DELTA, delta_stepping
from repro.systems.gap.structural import (afforest_components, kcore_peel,
                                          mis_luby, sv_components)

__all__ = ["GapSystem"]


class GapSystem(GraphSystem):
    """The GAP Benchmark Suite (Sec. III-C item 2).

    Provides all six GAP benchmarks: the paper's three (bfs, sssp,
    pagerank) plus cc/wcc, the Sec. V extension kernels bc and tc, and
    the widened structural matrix (kcore, mis, and afforest cc).
    """

    name = "gap"
    provides = frozenset({"bfs", "sssp", "pagerank", "wcc", "bc", "tc",
                          "kcore", "mis", "cc"})
    separable_construction = True
    #: EPG* feeds GAP the weighted text edge list (priced by size,
    #: built from the ``.g500`` dump).
    input_key = "wel"
    pricing = {"kcore": kcore_peel, "mis": mis_luby}

    def __init__(self, machine=None, n_threads: int = 32,
                 weight_dtype: str = "float64", shards: int = 1):
        super().__init__(machine=machine, n_threads=n_threads,
                         shards=shards)
        if weight_dtype not in ("float64", "int32"):
            raise SystemCapabilityError(
                "weight_dtype must be 'float64' or 'int32'")
        #: Paper Sec. IV-A: "the GAP Benchmark Suite can be recompiled
        #: to store weights as integers ... in cases where weights like
        #: 0.2 are cast to 0" -- int32 reproduces that build, including
        #: the truncation hazard (weights < 1 become 0).
        self.weight_dtype = weight_dtype

    # -- loading -------------------------------------------------------
    def _build(self, edges: EdgeList, dataset: HomogenizedDataset):
        if self.weight_dtype == "int32" and edges.weights is not None:
            # The integer-weight build truncates at ingest (0.2 -> 0).
            edges = EdgeList(
                edges.src, edges.dst, edges.n_vertices,
                weights=edges.weights.astype(np.int32).astype(
                    np.float64),
                directed=edges.directed, name=edges.name)
        graph, profile = build_gap_graph(edges, directed=dataset.directed)
        arrays = graph.out.to_arrays_map("out_")
        if graph.directed:
            arrays.update(graph.inn.to_arrays_map("inn_"))
        return arrays, {"n": graph.n, "directed": graph.directed}, profile

    def _n_arcs(self, data: GapGraph) -> int:
        return data.n_arcs

    def _cache_token(self) -> dict:
        # int32 truncates weights at ingest: other built bytes.
        return {"weight_dtype": self.weight_dtype}

    def _assemble(self, arrays, meta) -> GapGraph:
        directed = bool(meta["directed"])
        out = CSRGraph.from_arrays_map(arrays, "out_",
                                       symmetric=not directed)
        if directed:
            out.attach_transpose(CSRGraph.from_arrays_map(arrays, "inn_"))
        return GapGraph(out=out, n=int(meta["n"]), directed=directed)

    # -- kernels -------------------------------------------------------
    def _arcs(self, data: GapGraph):
        return data.out.source_ids(), data.out.col_idx

    def _run_bfs(self, loaded, root: int, alpha: float = DEFAULT_ALPHA,
                 beta: float = DEFAULT_BETA):
        if self.shards > 1:
            from repro.shard.drivers import shard_dobfs

            engine = self._shard_engine(loaded, loaded.data.out)
            parent, level, profile, stats = shard_dobfs(
                loaded.data, root, engine, alpha=alpha, beta=beta)
            self._note_shard_exchange("bfs", engine)
        else:
            parent, level, profile, stats = dobfs(
                loaded.data, root, alpha=alpha, beta=beta)
        counters = {"depth": float(stats["depth"])}
        counters["bottom_up_steps"] = float(stats["steps"].count("B"))
        return ({"parent": parent, "level": level}, profile, None, counters)

    def _run_sssp(self, loaded, root: int, delta: float = DEFAULT_DELTA):
        if self.shards > 1:
            from repro.shard.drivers import shard_delta_stepping

            engine = self._shard_engine(loaded, loaded.data.out)
            dist, profile, stats = shard_delta_stepping(
                loaded.data, root, engine, delta=delta)
            self._note_shard_exchange("sssp", engine)
        else:
            dist, profile, stats = delta_stepping(loaded.data, root,
                                                  delta=delta)
        counters = {"phases": float(stats["phases"]),
                    "relaxations": float(stats["relaxations"])}
        return ({"dist": dist}, profile, None, counters)

    def _run_pagerank(self, loaded, epsilon: float = DEFAULT_EPSILON,
                      damping: float = DEFAULT_DAMPING,
                      max_iterations: int = 1000):
        rank, iterations, profile = pagerank_gs(
            loaded.data, damping=damping, epsilon=epsilon,
            max_iterations=max_iterations)
        return ({"rank": rank}, profile, iterations, {})

    def _run_wcc(self, loaded):
        labels, rounds, profile = sv_components(loaded.data)
        return ({"labels": labels}, profile, rounds, {})

    def _run_cc(self, loaded, neighbor_rounds: int | None = None):
        labels, rounds, profile = afforest_components(loaded.data,
                                                      neighbor_rounds)
        return ({"labels": labels}, profile, rounds, {})

    def _run_bc(self, loaded, n_sources: int | None = None,
                seed: int = 27):
        from repro.systems.gap.extras import DEFAULT_BC_SOURCES, bc_sampled

        n_sources = n_sources or DEFAULT_BC_SOURCES
        rng = np.random.default_rng(seed)
        n = loaded.n_vertices
        sources = rng.choice(n, size=min(n_sources, n), replace=False)
        scores, profile, stats = bc_sampled(loaded.data, sources)
        return ({"bc": scores}, profile, None,
                {"sources": stats["sources"],
                 "reached_edges": float(stats["reached_edges"])})

    def _run_tc(self, loaded):
        from repro.systems.gap.extras import tc_ordered

        count, profile, stats = tc_ordered(loaded.data)
        return ({"triangles": np.array([count], dtype=np.int64)},
                profile, None,
                {"triangles": float(count), "wedges": stats["wedges"]})
