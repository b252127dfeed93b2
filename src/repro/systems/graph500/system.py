"""Graph500 system wrapper."""

from __future__ import annotations

from repro.datasets.homogenize import HomogenizedDataset
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.machine.threads import WorkProfile
from repro.systems.base import GraphSystem
from repro.systems.graph500.bfs import bfs_bitmap

__all__ = ["Graph500System"]


class Graph500System(GraphSystem):
    """The Graph500 reference code (Sec. III-C item 1)."""

    name = "graph500"
    provides = frozenset({"bfs"})
    separable_construction = True
    input_key = "g500"
    kronecker_only = True

    # -- loading -------------------------------------------------------
    def _build(self, edges: EdgeList, dataset: HomogenizedDataset):
        profile = WorkProfile()
        el = edges.symmetrized()
        m = el.n_edges
        # The reference builder: counting pass, prefix sums, placement.
        profile.add_round(units=m, memory_bytes=16.0 * m, skew=0.05)
        csr = CSRGraph.from_arrays(el.src, el.dst, el.n_vertices,
                                   symmetric=True)
        profile.add_round(units=m, memory_bytes=24.0 * m, skew=0.05)
        return csr.to_arrays_map("g_"), {"n": csr.n_vertices}, profile

    def _n_arcs(self, data: CSRGraph) -> int:
        return data.n_edges

    def _assemble(self, arrays, meta) -> CSRGraph:
        return CSRGraph.from_arrays_map(arrays, "g_", symmetric=True)

    # -- kernels -------------------------------------------------------
    def _run_bfs(self, loaded, root: int):
        if self.shards > 1:
            from repro.shard.drivers import shard_bfs_bitmap

            engine = self._shard_engine(loaded, loaded.data, pull=False)
            parent, level, profile, stats = shard_bfs_bitmap(
                loaded.data, root, engine)
            self._note_shard_exchange("bfs", engine)
        else:
            parent, level, profile, stats = bfs_bitmap(loaded.data, root)
        counters = {"depth": float(stats["depth"]),
                    "edges_examined": float(stats["edges_examined"])}
        return ({"parent": parent, "level": level}, profile, None, counters)

