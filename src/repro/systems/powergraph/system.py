"""PowerGraph system wrapper (GAS engine, fused load, no BFS)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import formats
from repro.datasets.homogenize import HomogenizedDataset
from repro.errors import SystemCapabilityError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.machine.threads import WorkProfile
from repro.systems import calibration
from repro.systems.base import GraphSystem, KernelResult
from repro.systems.powergraph import programs
from repro.systems.powergraph.gas import GasEngine
from repro.systems.powergraph.partition import VertexCut, random_vertex_cut

__all__ = ["PowerGraphSystem", "PowerGraphData"]


@dataclass
class PowerGraphData:
    """Partitioned graph: directed engine + symmetrized engine (WCC)."""

    engine: GasEngine
    engine_sym: GasEngine
    cut: VertexCut
    n: int

    @property
    def n_arcs(self) -> int:
        return self.engine.out.n_edges

    def nbytes(self) -> int:
        """Both engines' CSR pairs plus the cut's mirror tables."""
        total = 0
        for eng in (self.engine, self.engine_sym):
            total += eng.inn.nbytes() + eng.out.nbytes()
        total += (self.cut.edge_partition.nbytes
                  + self.cut.replicas.nbytes + self.cut.master.nbytes)
        return total


class PowerGraphSystem(GraphSystem):
    """PowerGraph (Sec. III-C item 5)."""

    name = "powergraph"
    #: No BFS: "PowerGraph ... doesn't provide a reference
    #: implementation of BFS in its toolkits" (Sec. III-D).
    provides = frozenset({"sssp", "pagerank", "wcc", "cdlp", "lcc",
                          "kcore", "mis"})
    #: Reads the TSV and partitions in one ingest pass.
    separable_construction = False
    input_key = "tsv"

    def __init__(self, machine=None, n_threads: int = 32,
                 n_partitions: int | None = None,
                 engine: str = "sync", shards: int = 1,
                 shard_strategy: str = "edge_blocks"):
        # ``shards`` accepted for interface homogeneity; PowerGraph's
        # GAS programs model their own partitioned execution already.
        super().__init__(machine=machine, n_threads=n_threads,
                         shards=shards, shard_strategy=shard_strategy)
        #: One partition per fiber-hosting thread by default.
        self.n_partitions = n_partitions or max(n_threads, 2)
        if engine not in ("sync", "async"):
            raise SystemCapabilityError(
                "engine must be 'sync' or 'async'")
        #: PowerGraph's ``--engine`` flag: the synchronous BSP engine
        #: (the paper's configuration) or the asynchronous
        #: fiber-scheduled one (min-programs only).
        self.engine_kind = engine

    # -- loading -------------------------------------------------------
    def _read_input(self, dataset: HomogenizedDataset) -> EdgeList:
        return formats.read_powergraph_tsv(
            dataset.path("tsv"), n_vertices=dataset.n_vertices,
            directed=dataset.directed, name=dataset.name)

    def _build(self, edges: EdgeList, dataset: HomogenizedDataset):
        profile = WorkProfile()
        el = edges if dataset.directed else edges.symmetrized()
        m = el.n_edges
        cut = random_vertex_cut(el.src, el.dst, el.n_vertices,
                                self.n_partitions)
        # Ingest: edge placement, mirror table construction, local CSR
        # finalization -- charged per edge plus per replica.
        profile.add_round(units=m + cut.mirrors(),
                          memory_bytes=40.0 * m, skew=0.05)
        inn = CSRGraph.from_arrays(el.dst, el.src, el.n_vertices,
                                   weights=el.weights)
        out = CSRGraph.from_arrays(el.src, el.dst, el.n_vertices,
                                   weights=el.weights)
        profile.add_round(units=m, memory_bytes=24.0 * m, skew=0.05)

        sym = el.symmetrized() if dataset.directed else el
        inn_s = CSRGraph.from_arrays(sym.dst, sym.src, sym.n_vertices)
        out_s = CSRGraph.from_arrays(sym.src, sym.dst, sym.n_vertices)
        profile.add_round(units=sym.n_edges, memory_bytes=16.0 * sym.n_edges,
                          skew=0.05)
        arrays = {"cut_edge_partition": cut.edge_partition,
                  "cut_replicas": cut.replicas,
                  "cut_master": cut.master,
                  **inn.to_arrays_map("inn_"),
                  **out.to_arrays_map("out_"),
                  **inn_s.to_arrays_map("inns_"),
                  **out_s.to_arrays_map("outs_")}
        meta = {"n": el.n_vertices, "n_partitions": cut.n_partitions}
        return arrays, meta, profile

    def _n_arcs(self, data: PowerGraphData) -> int:
        return data.n_arcs

    def _cache_token(self) -> dict:
        # The cut depends on the partition count; the engines are
        # rebuilt around the arrays per instance, but engine kind rides
        # in the key so sync/async studies never alias.
        return {"n_partitions": self.n_partitions,
                "engine": self.engine_kind}

    def _assemble(self, arrays, meta) -> PowerGraphData:
        from repro.systems.powergraph.gas import AsyncGasEngine

        n = int(meta["n"])
        cut = VertexCut(n_vertices=n,
                        n_partitions=int(meta["n_partitions"]),
                        edge_partition=arrays["cut_edge_partition"],
                        replicas=arrays["cut_replicas"],
                        master=arrays["cut_master"])
        engine_cls = (AsyncGasEngine if self.engine_kind == "async"
                      else GasEngine)
        return PowerGraphData(
            engine=engine_cls(CSRGraph.from_arrays_map(arrays, "inn_"),
                              CSRGraph.from_arrays_map(arrays, "out_"),
                              cut),
            engine_sym=engine_cls(
                CSRGraph.from_arrays_map(arrays, "inns_"),
                CSRGraph.from_arrays_map(arrays, "outs_"), cut),
            cut=cut, n=n)

    # -- kernels -------------------------------------------------------
    def _run_sssp(self, loaded, root: int):
        dist, steps, profile, stats = programs.run_sssp(
            loaded.data.engine, root)
        return ({"dist": dist}, profile, steps,
                {"replication_factor": stats["replication_factor"],
                 "gathered_edges": float(stats["gathered_edges"])})

    def _run_pagerank(self, loaded, epsilon: float = 6e-8,
                      damping: float = 0.85, max_iterations: int = 1000):
        rank, iterations, profile, stats = programs.pagerank_gas(
            loaded.data.engine, damping=damping, epsilon=epsilon,
            max_iterations=max_iterations)
        return ({"rank": rank}, profile, iterations,
                {"replication_factor": stats["replication_factor"]})

    def _run_wcc(self, loaded):
        labels, steps, profile, stats = programs.run_wcc(
            loaded.data.engine_sym)
        return ({"labels": labels}, profile, steps,
                {"replication_factor": stats["replication_factor"]})

    def _run_cdlp(self, loaded, iterations: int = 10):
        labels, iters, profile, stats = programs.cdlp_gas(
            loaded.data.engine, iterations=iterations)
        return ({"labels": labels}, profile, iters,
                {"replication_factor": stats["replication_factor"]})

    def _run_lcc(self, loaded):
        lcc, profile, stats = programs.lcc_gas(loaded.data.engine)
        return ({"lcc": lcc}, profile, None, {"wedges": stats["wedges"]})

    def _run_kcore(self, loaded):
        core, supersteps, profile, stats = programs.kcore_gas(
            loaded.data.engine)
        return ({"core": core}, profile, supersteps,
                {"replication_factor": stats["replication_factor"],
                 "max_core": float(core.max()) if core.size else 0.0})

    def _run_mis(self, loaded, seed: int | None = None):
        in_set, supersteps, profile, stats = programs.mis_gas(
            loaded.data.engine, seed)
        return ({"in_set": in_set.astype(np.int64)}, profile, supersteps,
                {"replication_factor": stats["replication_factor"],
                 "set_size": float(in_set.sum())})

    # -- the Graphalytics BFS driver -----------------------------------
    def run_toolkit_extension(self, loaded, program: str,
                              root: int | None = None) -> KernelResult:
        """Run a non-toolkit GAS program (how Graphalytics gets BFS).

        Only ``"bfs-hops"`` is defined; it is *not* part of
        ``provides`` on purpose -- EPG* refuses it (Fig 2/8 holes), the
        Graphalytics harness uses it (Tables I-II).
        """
        if program != "bfs-hops":
            raise SystemCapabilityError(
                f"unknown toolkit extension {program!r}")
        if root is None:
            raise SystemCapabilityError("bfs-hops requires a root")
        hops, steps, profile, stats = programs.run_bfs_hops(
            loaded.data.engine, int(root))
        level = np.where(np.isfinite(hops), hops, -1).astype(np.int64)
        sim = self.thread_model.simulate(
            profile, calibration.cost_params(self.name, "sssp",
                                             self.machine),
            self.n_threads)
        return KernelResult(
            system=self.name, algorithm="bfs", time_s=sim.time_s, sim=sim,
            profile=profile, output={"level": level}, root=root,
            iterations=steps,
            counters={"replication_factor": stats["replication_factor"]})
