"""Graph500 system wrapper.

Also exposes :meth:`Graph500System.run_benchmark1`, the full Benchmark 1
("Search") protocol: construct once, search all keys, report the
min/mean/max/TEPS statistics the reference code prints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import formats
from repro.datasets.homogenize import HomogenizedDataset
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.machine.threads import WorkProfile
from repro.systems.base import GraphSystem, KernelResult
from repro.systems.graph500.bfs import bfs_bitmap

__all__ = ["Graph500System", "Benchmark1Result"]


@dataclass
class Benchmark1Result:
    """Statistics the reference implementation prints after a run."""

    scale_hint: int
    construction_s: float
    bfs_times_s: list[float]
    edges_traversed: list[int]

    @property
    def min_time(self) -> float:
        return min(self.bfs_times_s)

    @property
    def max_time(self) -> float:
        return max(self.bfs_times_s)

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.bfs_times_s))

    @property
    def harmonic_mean_teps(self) -> float:
        """TEPS = traversed edges per second, harmonic-mean aggregated
        exactly as the spec requires (mean of times per edge)."""
        inv = [t / max(e, 1) for t, e in
               zip(self.bfs_times_s, self.edges_traversed)]
        return 1.0 / float(np.mean(inv))


class Graph500System(GraphSystem):
    """The Graph500 reference code (Sec. III-C item 1)."""

    name = "graph500"
    provides = frozenset({"bfs"})
    separable_construction = True
    input_key = "g500"
    kronecker_only = True

    # -- loading -------------------------------------------------------
    def _read_input(self, dataset: HomogenizedDataset) -> EdgeList:
        return formats.read_g500(dataset.path("g500"), name=dataset.name)

    def _build(self, edges: EdgeList, dataset: HomogenizedDataset):
        profile = WorkProfile()
        el = edges.symmetrized()
        m = el.n_edges
        # The reference builder: counting pass, prefix sums, placement.
        profile.add_round(units=m, memory_bytes=16.0 * m, skew=0.05)
        csr = CSRGraph.from_arrays(el.src, el.dst, el.n_vertices)
        profile.add_round(units=m, memory_bytes=24.0 * m, skew=0.05)
        return csr.to_arrays_map("g_"), {"n": csr.n_vertices}, profile

    def _n_arcs(self, data: CSRGraph) -> int:
        return data.n_edges

    def _assemble(self, arrays, meta) -> CSRGraph:
        return CSRGraph.from_arrays_map(arrays, "g_")

    # -- kernels -------------------------------------------------------
    def _run_bfs(self, loaded, root: int):
        if self.shards > 1:
            from repro.shard.drivers import shard_bfs_bitmap

            engine = self._shard_engine(loaded, loaded.data)
            parent, level, profile, stats = shard_bfs_bitmap(
                loaded.data, root, engine)
            self._note_shard_exchange("bfs", engine)
        else:
            parent, level, profile, stats = bfs_bitmap(loaded.data, root)
        counters = {"depth": float(stats["depth"]),
                    "edges_examined": float(stats["edges_examined"])}
        return ({"parent": parent, "level": level}, profile, None, counters)

    # -- Benchmark 1 protocol ------------------------------------------
    def run_benchmark1(self, loaded, roots: np.ndarray
                       ) -> tuple[Benchmark1Result, list[KernelResult]]:
        """Search all keys back-to-back, as the reference binary does.

        Note the consequence the paper highlights: because one execution
        covers all roots, EPG* gets a single power data point for the
        Graph500 (Fig 9) while per-root runtimes still come from the
        per-search timing the spec mandates.
        """
        results = [self.run(loaded, "bfs", root=int(r)) for r in roots]
        n_scale = max(int(np.ceil(np.log2(max(loaded.n_vertices, 2)))), 1)
        bench = Benchmark1Result(
            scale_hint=n_scale,
            construction_s=loaded.build_s or 0.0,
            bfs_times_s=[r.time_s for r in results],
            edges_traversed=[int(r.counters["edges_examined"])
                             for r in results],
        )
        return bench, results
