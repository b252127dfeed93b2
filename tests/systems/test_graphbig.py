"""GraphBIG-specific behaviour: property graph, vertex-centric kernels."""

import numpy as np
import pytest

from repro.algorithms import bfs_parents, sssp_dijkstra
from repro.systems import create_system


@pytest.fixture(scope="module")
def gbig(kron10_dataset):
    s = create_system("graphbig", n_threads=32)
    return s, s.load(kron10_dataset)


class TestPropertyGraph:
    def test_property_arrays_allocated(self, gbig):
        _, loaded = gbig
        props = loaded.data.properties
        for key in ("level", "color", "rank", "distance"):
            assert props[key].shape == (loaded.n_vertices,)

    def test_kernels_update_properties(self, gbig, kron10_dataset):
        s, loaded = gbig
        root = int(kron10_dataset.roots[0])
        s.run(loaded, "bfs", root=root)
        assert loaded.data.properties["level"][root] == 0
        s.run(loaded, "pagerank")
        assert loaded.data.properties["rank"].sum() == pytest.approx(
            1.0, abs=1e-6)


class TestKernels:
    def test_bfs_no_direction_switch_work(self, gbig, kron10_dataset,
                                          kron10_csr):
        """Plain top-down: examined edges ~ all reached out-edges,
        unlike GAP's pruned bottom-up."""
        s, loaded = gbig
        root = int(kron10_dataset.roots[0])
        res = s.run(loaded, "bfs", root=root)
        reached = res.output["level"] >= 0
        deg = kron10_csr.out_degrees()
        assert res.profile.total_units >= 0.5 * deg[reached].sum()

    def test_sssp_supersteps_bounded(self, gbig, kron10_dataset):
        s, loaded = gbig
        root = int(kron10_dataset.roots[1])
        res = s.run(loaded, "sssp", root=root)
        assert 1 <= res.counters["supersteps"] < loaded.n_vertices

    def test_wcc_rounds_close_to_diameter(self, gbig, kron10_csr):
        s, loaded = gbig
        res = s.run(loaded, "wcc")
        lev = bfs_parents(kron10_csr, 0)[1]
        diameter_bound = lev.max() * 2 + 2
        assert res.iterations <= diameter_bound + 2

    def test_lcc_reports_wedges(self, gbig):
        s, loaded = gbig
        res = s.run(loaded, "lcc")
        assert res.counters["wedges"] > 0

    def test_fused_load_includes_build_cost(self, kron10_dataset):
        """GraphBIG's lumped load must be bigger than a bare file read
        of the same bytes (construction is inside it)."""
        s = create_system("graphbig")
        loaded = s.load(kron10_dataset)
        from repro.systems import calibration

        bare_read = loaded.input_bytes / (
            calibration.read_rate_mbs("graphbig") * 1e6)
        assert loaded.read_s > bare_read

    def test_pagerank_fixed_budget_mode(self, gbig):
        """Graphalytics drives PR with epsilon=0 and a fixed budget."""
        s, loaded = gbig
        res = s.run(loaded, "pagerank", epsilon=0.0, max_iterations=7)
        assert res.iterations == 7
