"""PowerGraph system wrapper (GAS engine, fused load, no BFS)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.homogenize import HomogenizedDataset
from repro.errors import SystemCapabilityError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.machine.threads import WorkProfile
from repro.systems.base import GraphSystem, KernelResult
from repro.systems.powergraph import programs
from repro.systems.powergraph.gas import AsyncGasEngine, GasEngine

__all__ = ["PowerGraphSystem", "PowerGraphData", "random_ingress",
           "replica_counts"]


def replica_counts(src: np.ndarray, dst: np.ndarray, part: np.ndarray,
                   n_vertices: int, n_parts: int) -> np.ndarray:
    """Parts hosting each vertex, when arc ``src[e] -> dst[e]`` is
    placed on part ``part[e]``: a vertex is replicated onto every part
    that holds one of its arcs, so this counts its distinct parts (0 for
    a vertex with no arc).  Counted on an ``n_vertices x n_parts``
    table of flags (``n * P`` bytes), so nothing is sorted."""
    hosts = np.zeros((n_vertices, n_parts), dtype=bool)
    hosts[src, part] = True
    hosts[dst, part] = True
    return np.count_nonzero(hosts, axis=1)


def random_ingress(src: np.ndarray, dst: np.ndarray, n_vertices: int,
                   n_partitions: int) -> tuple[float, int]:
    """PowerGraph's default ``random`` ingress: each arc lands on a
    uniformly random partition, and every partition holding an arc of a
    vertex hosts a replica of it (one master plus mirrors).

    Returns the two numbers the system prices: the replication factor
    (mean replicas over vertices with an arc; 0.0 with none) and the
    mirror count (replicas beyond each master).
    """
    part = np.random.default_rng(7).integers(0, n_partitions, size=src.size,
                                             dtype=np.int64)
    replicas = replica_counts(src, dst, part, n_vertices, n_partitions)
    present = replicas[replicas > 0]
    if not present.size:
        return 0.0, 0
    return float(present.mean()), int((present - 1).sum())


@dataclass
class PowerGraphData:
    """Partitioned graph: directed engine + symmetrized engine (WCC),
    one and the same on undirected input."""

    engine: GasEngine
    engine_sym: GasEngine
    #: Replicas beyond each master, what ingest paid for.
    mirrors: int
    n: int

    @property
    def n_arcs(self) -> int:
        return self.engine.out.n_edges

    def nbytes(self) -> int:
        """Each distinct engine's in- plus out-CSR (a shared engine
        counts once).  Where the two are one object both count: counted,
        not held, like GraphBIG's property records."""
        return sum(e.inn.nbytes() + e.out.nbytes()
                   for e in {self.engine, self.engine_sym})


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
    pricing = {"kcore": programs.kcore_gas, "mis": programs.mis_gas,
               "cdlp": programs.cdlp_gas, "lcc": programs.lcc_gas}

    def __init__(self, machine=None, n_threads: int = 32,
                 n_partitions: int | None = None,
                 engine: str = "sync", shards: int = 1):
        # ``shards`` accepted for interface homogeneity; PowerGraph's
        # GAS programs model their own partitioned execution already.
        super().__init__(machine=machine, n_threads=n_threads,
                         shards=shards)
        if n_partitions is not None and n_partitions < 1:
            raise SystemCapabilityError(
                f"n_partitions must be >= 1, got {n_partitions}")
        #: One partition per fiber-hosting thread by default.
        self.n_partitions = (max(n_threads, 2) if n_partitions is None
                             else int(n_partitions))
        if engine not in ("sync", "async"):
            raise SystemCapabilityError(
                "engine must be 'sync' or 'async'")
        #: PowerGraph's ``--engine`` flag: the synchronous BSP engine
        #: (the paper's configuration) or the asynchronous
        #: fiber-scheduled one (min-programs only).
        self.engine_kind = engine

    # -- loading -------------------------------------------------------
    def _build(self, edges: EdgeList, dataset: HomogenizedDataset):
        profile = WorkProfile()
        el = edges if dataset.directed else edges.symmetrized()
        m = el.n_edges
        replication, mirrors = random_ingress(el.src, el.dst, el.n_vertices,
                                              self.n_partitions)
        # Ingest: edge placement, mirror table construction, local CSR
        # finalization -- charged per edge plus per replica.
        profile.add_round(units=m + mirrors, memory_bytes=40.0 * m,
                          skew=0.05)
        out = CSRGraph.from_arrays(el.src, el.dst, el.n_vertices,
                                   weights=el.weights,
                                   symmetric=not dataset.directed)
        profile.add_round(units=m, memory_bytes=24.0 * m, skew=0.05)
        arrays = out.to_arrays_map("out_")

        # WCC's symmetrized CSR, its own transpose: undirected input
        # already is one (WCC reads no weights), but the round is
        # priced either way -- construction is a paper measurement.
        sym = el.symmetrized() if dataset.directed else el
        if dataset.directed:
            arrays.update(out.transposed().to_arrays_map("inn_"))
            arrays.update(CSRGraph.from_arrays(
                sym.src, sym.dst, sym.n_vertices,
                symmetric=True).to_arrays_map("sym_"))
        profile.add_round(units=sym.n_edges, memory_bytes=16.0 * sym.n_edges,
                          skew=0.05)
        meta = {"n": el.n_vertices, "directed": dataset.directed,
                "replication_factor": replication, "mirrors": mirrors}
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
        engine_cls = (AsyncGasEngine if self.engine_kind == "async"
                      else GasEngine)
        replication = float(meta["replication_factor"])
        directed = bool(meta["directed"])
        out = CSRGraph.from_arrays_map(arrays, "out_",
                                       symmetric=not directed)
        engine = engine_sym = engine_cls(out, replication)
        if directed:
            out.attach_transpose(CSRGraph.from_arrays_map(arrays, "inn_"))
            engine_sym = engine_cls(CSRGraph.from_arrays_map(
                arrays, "sym_", symmetric=True), replication)
        return PowerGraphData(engine=engine, engine_sym=engine_sym,
                              mirrors=int(meta["mirrors"]), n=int(meta["n"]))

    # -- kernels -------------------------------------------------------
    def _arcs(self, data: PowerGraphData):
        inn = data.engine.inn
        return inn.col_idx, inn.source_ids()

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
        self._check_root(program, root, loaded)
        # Priced as the SSSP toolkit program it is a variant of.
        return self._execute(loaded, "bfs", root,
                             lambda: self._bfs_hops(loaded, int(root)),
                             cost_as="sssp")

    def _bfs_hops(self, loaded, root: int):
        hops, steps, profile, stats = programs.run_bfs_hops(
            loaded.data.engine, root)
        level = np.where(np.isfinite(hops), hops, -1).astype(np.int64)
        return ({"level": level}, profile, steps,
                {"replication_factor": stats["replication_factor"]})
