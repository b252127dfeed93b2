"""Tests for the feasibility predictor (paper Sec. V) in
``repro.core.projection``."""

import pytest

from repro.core.projection import (
    FeasibilityVerdict,
    WorkloadSize,
    check_feasibility,
    estimate_memory_bytes,
    project,
)
from repro.errors import ConfigError
from repro.machine.spec import MachineSpec, haswell_server


class TestWorkloadSize:
    def test_kronecker_sizes(self):
        s = WorkloadSize.kronecker(22)
        assert s.n_vertices == 1 << 22
        assert s.n_arcs == 2 * 16 * (1 << 22)
        assert s.wedges == pytest.approx(4.0e10, rel=0.01)

    def test_wedge_estimate_fallback(self):
        s = WorkloadSize(n_vertices=1000, n_arcs=32000)
        assert s.wedge_estimate() == pytest.approx(10 * 32 * 32000)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            WorkloadSize(n_vertices=0, n_arcs=10)


class TestMemory:
    def test_scale22_fits_256gb(self):
        """The paper ran scale 22 on 256 GB: every system must fit."""
        size = WorkloadSize.kronecker(22)
        for system in ("gap", "graph500", "graphbig", "graphmat",
                       "powergraph"):
            assert estimate_memory_bytes(system, size) < 256e9

    def test_scale30_overflows_someone(self):
        size = WorkloadSize.kronecker(30)
        assert estimate_memory_bytes("powergraph", size) > 256e9

    def test_memory_ordering(self):
        """Property-graph and partitioned stores cost more per vertex
        than the lean CSR codes."""
        size = WorkloadSize.kronecker(20)
        lean = estimate_memory_bytes("graph500", size)
        for heavy in ("graphbig", "powergraph", "gap", "graphmat"):
            assert estimate_memory_bytes(heavy, size) > lean

    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            estimate_memory_bytes("ligra", WorkloadSize.kronecker(10))


class TestRuntime:
    def test_bfs_projection_matches_anchor(self):
        size = WorkloadSize.kronecker(22)
        t = project("gap", "bfs", size, n_threads=32)
        assert t == pytest.approx(0.01636, rel=0.1)

    def test_lcc_dominates(self):
        """LCC projects as the slowest kernel (the Tables I-II shape)."""
        size = WorkloadSize.kronecker(18)
        lcc = project("graphbig", "lcc", size)
        for other in ("bfs", "sssp", "pagerank", "wcc", "cdlp"):
            assert lcc > project("graphbig", other, size)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            project("graph500", "lcc", WorkloadSize.kronecker(10))

    def test_threads_reduce_runtime(self):
        size = WorkloadSize.kronecker(20)
        t1 = project("gap", "pagerank", size, n_threads=1)
        t32 = project("gap", "pagerank", size, n_threads=32)
        assert t32 < t1


class TestVerdicts:
    def test_feasible_cell(self):
        v = check_feasibility("gap", "bfs", WorkloadSize.kronecker(20),
                              time_limit_s=60.0)
        assert v.feasible
        assert v.limiting_factor is None

    def test_time_limited_cell(self):
        """The Graphalytics failure mode: LCC blows the job budget."""
        v = check_feasibility("graphbig", "lcc",
                              WorkloadSize.kronecker(22),
                              time_limit_s=60.0)
        assert not v.within_time_limit
        assert v.limiting_factor == "time"
        assert not v.feasible

    def test_memory_limited_cell(self):
        v = check_feasibility("powergraph", "pagerank",
                              WorkloadSize.kronecker(30))
        assert not v.fits_memory
        assert v.limiting_factor == "memory"

    def test_small_machine(self):
        laptop = MachineSpec(ram_gb=16)
        v = check_feasibility("graphbig", "bfs",
                              WorkloadSize.kronecker(26),
                              machine=laptop)
        assert not v.fits_memory

    def test_verdict_is_dataclass(self):
        v = check_feasibility("gap", "bfs", WorkloadSize.kronecker(10))
        assert isinstance(v, FeasibilityVerdict)


class TestGraphalyticsTimeouts:
    def test_expensive_cell_fails(self, dota_dataset):
        """Sec. V: Graphalytics fails on computationally expensive
        algorithms; with a job budget the LCC cell reports 'F'."""
        from repro.graphalytics import GraphalyticsHarness, render_table

        h = GraphalyticsHarness(n_threads=32, seed=7, time_limit_s=0.01)
        lcc = h.run_cell("graphbig", "lcc", dota_dataset)
        bfs = h.run_cell("graphbig", "bfs", dota_dataset)
        assert lcc.failed and lcc.display == "F"
        assert not bfs.failed
        out = render_table([lcc, bfs])
        assert "F" in out
