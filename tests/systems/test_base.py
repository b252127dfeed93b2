"""Tests for the GraphSystem interface contracts."""

import pytest

from repro.errors import SystemCapabilityError
from repro.systems import available_systems, create_system
from repro.systems.registry import ALL_SYSTEM_NAMES


class TestRegistry:
    def test_all_five_available(self):
        assert set(ALL_SYSTEM_NAMES) <= set(available_systems())

    def test_create_unknown(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            create_system("pregel")


class TestCapabilities:
    def test_paper_capability_matrix(self):
        """Sec. III-C/III-D: who provides what."""
        caps = {name: create_system(name).provides
                for name in ALL_SYSTEM_NAMES}
        assert caps["graph500"] == {"bfs"}
        assert "bfs" not in caps["powergraph"]       # no BFS toolkit
        assert "sssp" in caps["powergraph"]
        assert caps["graphbig"] >= {"bfs", "sssp", "pagerank", "wcc",
                                    "cdlp", "lcc"}
        assert caps["graphmat"] >= {"bfs", "sssp", "pagerank", "wcc",
                                    "cdlp", "lcc"}
        assert caps["gap"] >= {"bfs", "sssp", "pagerank"}

    def test_require_raises(self):
        s = create_system("graph500")
        with pytest.raises(SystemCapabilityError):
            s.require("pagerank")

    def test_run_unsupported_raises(self, kron10_dataset):
        s = create_system("powergraph")
        loaded = s.load(kron10_dataset)
        with pytest.raises(SystemCapabilityError):
            s.run(loaded, "bfs", root=0)

    def test_bfs_requires_root(self, kron10_dataset):
        s = create_system("gap")
        loaded = s.load(kron10_dataset)
        with pytest.raises(SystemCapabilityError):
            s.run(loaded, "bfs")

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("system, algorithm", [
        ("gap", "bfs"), ("gap", "sssp"), ("graph500", "bfs")])
    @pytest.mark.parametrize("root", [-1, 1024, 10 ** 9])
    def test_root_out_of_range(self, kron10_dataset, system, algorithm,
                               root, shards):
        """Used to escape the kernel as a bare NumPy IndexError (or, for
        -1, run from the last vertex)."""
        s = create_system(system, shards=shards)
        loaded = s.load(kron10_dataset)
        try:
            with pytest.raises(SystemCapabilityError, match="root must be"):
                s.run(loaded, algorithm, root=root)
        finally:
            loaded.close()

    def test_invalid_thread_count(self):
        with pytest.raises(SystemCapabilityError):
            create_system("gap", n_threads=0)


class TestSeparableConstruction:
    def test_fused_systems_report_no_build(self, kron10_dataset):
        """GraphBIG and PowerGraph read + build simultaneously
        (Sec. III-B), so build_s is None and load time is one lump."""
        for name in ("graphbig", "powergraph"):
            loaded = create_system(name).load(kron10_dataset)
            assert loaded.build_s is None
            assert loaded.read_s > 0

    def test_separable_systems_report_both(self, kron10_dataset):
        for name in ("gap", "graph500", "graphmat"):
            loaded = create_system(name).load(kron10_dataset)
            assert loaded.build_s is not None and loaded.build_s > 0
            assert loaded.read_s > 0

    def test_load_s_is_total(self, kron10_dataset):
        loaded = create_system("gap").load(kron10_dataset)
        assert loaded.load_s == pytest.approx(
            loaded.read_s + loaded.build_s)


class TestGraph500KroneckerOnly:
    def test_refuses_real_world(self, dota_dataset):
        s = create_system("graph500")
        with pytest.raises(SystemCapabilityError):
            s.load(dota_dataset)

    def test_accepts_kronecker(self, kron10_dataset):
        s = create_system("graph500")
        assert s.load(kron10_dataset).n_arcs > 0
