"""GraphMat system wrapper: DCSR-modelled matrices, phase-structured
execution.

Every ``run`` reproduces GraphMat's phase sequence -- the one the
paper's Table I excerpt shows for PageRank on dota-league::

    Finished file read of dota-league. time: 2.65211
    load graph: 5.91229 sec
    initialize engine: 8.32081e-05 sec
    run algorithm 1 (count degree): 0.0555639 sec
    run algorithm 2 (compute PageRank): 0.149445 sec
    print output: 0.0641179 sec
    deinitialize engine: 0.00022006 sec

EPG* times only "run algorithm 2"; Graphalytics' GraphMat platform
driver wraps the whole process -- the unfairness Sec. II dissects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import formats
from repro.datasets.homogenize import HomogenizedDataset
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.machine.threads import WorkProfile
from repro.systems.base import GraphSystem
from repro.systems.graphmat import kernels

__all__ = ["GraphMatSystem", "GraphMatMatrices"]


def _dcsr_nbytes(matrix: CSRGraph) -> int:
    """What GraphMat's DCSR of ``matrix`` holds: its CSR's arrays with
    the ``n + 1`` row pointer replaced by a row id and a row offset per
    non-empty row (the :meth:`~repro.graph.csr.CSRGraph.pull_rows`
    index) plus the closing offset."""
    rows = int(np.count_nonzero(matrix.out_degrees()))
    return matrix.nbytes() - matrix.row_ptr.nbytes + 16 * rows + 8


@dataclass
class GraphMatMatrices:
    """GraphMat's graph: the transpose (pull direction) + degrees.
    On undirected input ``at_sym`` is ``at`` itself."""

    at: CSRGraph            # A^T with weights
    at_sym: CSRGraph        # symmetrized pattern (for WCC)
    out_degrees: np.ndarray
    n: int

    @property
    def n_arcs(self) -> int:
        return self.at.n_edges

    def nbytes(self) -> int:
        """The modelled footprint, counted, not held: each distinct
        matrix (a shared one counts once) as DCSR stores it, plus the
        degree cache."""
        sym = 0 if self.at_sym is self.at else _dcsr_nbytes(self.at_sym)
        return _dcsr_nbytes(self.at) + sym + self.out_degrees.nbytes


class GraphMatSystem(GraphSystem):
    """GraphMat (Sec. III-C item 4)."""

    name = "graphmat"
    provides = frozenset({"bfs", "sssp", "pagerank", "wcc", "cdlp", "lcc",
                          "kcore", "mis"})
    separable_construction = True
    input_key = "mtxbin"
    read_key = "mtxbin"
    pricing = {"kcore": kernels.kcore_spmv, "mis": kernels.mis_spmv,
               "cdlp": kernels.cdlp_spmv, "lcc": kernels.lcc_spmv}

    # -- loading -------------------------------------------------------
    def _read_input(self, dataset: HomogenizedDataset) -> EdgeList:
        return formats.read_graphmat_bin(
            dataset.path(self.read_key), directed=dataset.directed,
            name=dataset.name)

    def _build(self, edges: EdgeList, dataset: HomogenizedDataset):
        profile = WorkProfile()
        el = edges if dataset.directed else edges.symmetrized()
        m = el.n_edges
        n = el.n_vertices
        # GraphMat partitions the matrix into tiles then doubly
        # compresses each: two sorting passes plus the tile build.
        profile.add_round(units=m, memory_bytes=24.0 * m, skew=0.05)
        at = CSRGraph.from_arrays(el.dst, el.src, n, weights=el.weights)
        profile.add_round(units=m, memory_bytes=24.0 * m, skew=0.05)
        arrays = {"out_degrees": np.bincount(el.src, minlength=n),
                  **at.to_arrays_map("at_")}
        # Symmetrized pattern for CC: on undirected input ``at``'s own,
        # so only directed input stores a second matrix.
        sym = el
        if dataset.directed:
            sym = el.symmetrized()
            arrays.update(CSRGraph.from_arrays(
                sym.dst, sym.src, n).to_arrays_map("ats_"))
        profile.add_round(units=sym.n_edges, memory_bytes=16.0 * sym.n_edges,
                          skew=0.05)
        return arrays, {"n": n, "directed": dataset.directed}, profile

    def _n_arcs(self, data: GraphMatMatrices) -> int:
        return data.n_arcs

    def _assemble(self, arrays, meta) -> GraphMatMatrices:
        n, directed = int(meta["n"]), bool(meta["directed"])
        at = at_sym = CSRGraph.from_arrays_map(arrays, "at_",
                                               symmetric=not directed)
        if directed:
            at_sym = CSRGraph.from_arrays_map(arrays, "ats_",
                                              symmetric=True)
        return GraphMatMatrices(at=at, at_sym=at_sym,
                                out_degrees=arrays["out_degrees"], n=n)

    # -- kernels -------------------------------------------------------
    def _arcs(self, data: GraphMatMatrices):
        # A^T entries are (row=dst, col=src) of A.
        return data.at.col_idx, data.at.source_ids()

    def _run_bfs(self, loaded, root: int):
        data = loaded.data
        parent, level, profile, stats = kernels.bfs_spmv(
            data.at, data.out_degrees, root)
        return ({"parent": parent, "level": level}, profile, None,
                {"depth": float(stats["depth"])})

    def _run_sssp(self, loaded, root: int):
        dist, profile, stats = kernels.sssp_bellman_spmv(loaded.data.at,
                                                         root)
        return ({"dist": dist}, profile, None,
                {"iterations": float(stats["iterations"])})

    def _run_pagerank(self, loaded, damping: float = 0.85,
                      max_iterations: int = 1000, epsilon: float = 0.0):
        # GraphMat stops when its stored ranks repeat, never on a
        # norm; the kernel checks ``epsilon`` and ignores it.
        data = loaded.data
        rank, iterations, profile = kernels.pagerank_float32(
            data.at, data.out_degrees, damping, max_iterations, epsilon)
        return ({"rank": rank}, profile, iterations, {})

    def _run_wcc(self, loaded):
        labels, rounds, profile = kernels.wcc_minplus(loaded.data.at_sym)
        return ({"labels": labels}, profile, rounds, {})

    # -- native phase view ---------------------------------------------
    def untimed_phases(self, loaded, build_s):
        """The phases around "run algorithm 2" that GraphMat's log
        prints and EPG* does not time: a constant engine start and
        stop, a degree count at a twentieth of the build, and one text
        line per vertex."""
        return {"init": 8.32e-5, "degree": 0.05 * build_s,
                "print": loaded.n_vertices * 1.5e-8, "deinit": 2.2e-4}
