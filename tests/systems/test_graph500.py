"""Graph500-specific behaviour: the bitmap BFS."""

import numpy as np

from repro.algorithms import bfs_parents
from repro.graph.csr import CSRGraph
from repro.systems import create_system
from repro.systems.graph500.bfs import bfs_bitmap


class TestBitmapBfs:
    def test_levels_match_reference(self, kron10_csr):
        for root in (0, 7, 100):
            _, level, _, _ = bfs_bitmap(kron10_csr, root)
            assert np.array_equal(level, bfs_parents(kron10_csr, root)[1])

    def test_examines_every_frontier_edge(self, kron10_csr):
        """Top-down without direction optimization: examined edges ==
        total out-degree of all reached-with-outgoing-work vertices."""
        _, level, _, stats = bfs_bitmap(kron10_csr, 0)
        reached = level >= 0
        deg = kron10_csr.out_degrees()
        # Every reached vertex's edges are scanned when it is frontier,
        # except the final frontier may terminate early; allow a slack
        # of its degree sum.
        assert stats["edges_examined"] <= deg[reached].sum()
        assert stats["edges_examined"] >= deg[reached].sum() * 0.5

    def test_work_exceeds_gap_dobfs(self, kron10, kron10_csr):
        """The structural reason GAP wins: DO-BFS prunes examinations."""
        from repro.systems.gap.bfs import dobfs
        from repro.systems.gap.graph import build_gap_graph

        g, _ = build_gap_graph(kron10, directed=False)
        _, _, p_gap, _ = dobfs(g, 0)
        _, _, p_500, _ = bfs_bitmap(kron10_csr, 0)
        assert p_500.total_units > p_gap.total_units


def test_only_bfs_supported(kron10_dataset):
    s = create_system("graph500")
    assert s.provides == {"bfs"}
