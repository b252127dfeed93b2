"""Tests for the one-call convenience API and projection helpers."""

import pytest

from repro.core import run_comparison
from repro.core.projection import (
    PAPER_SCALING_SCALE,
    WorkloadSize,
    project,
    projected_scalability,
)
from repro.errors import ConfigError


def test_run_comparison_end_to_end(tmp_path):
    exp, analysis = run_comparison(
        tmp_path, scale=8, n_roots=2,
        systems=("gap", "graphmat"), algorithms=("bfs",))
    assert (tmp_path / "results.csv").exists()
    box = analysis.box("time")
    assert ("gap", "bfs", "kron-scale8", 32) in box
    assert ("graphmat", "bfs", "kron-scale8", 32) in box


def test_run_comparison_threads(tmp_path):
    _, analysis = run_comparison(
        tmp_path, scale=8, n_roots=2, systems=("gap",),
        algorithms=("bfs",), thread_counts=(1, 4))
    assert analysis.thread_counts() == [1, 4]


class TestProjection:
    def test_paper_scale_constant(self):
        assert PAPER_SCALING_SCALE == 23

    def test_projected_time_matches_anchor_at_scale22(self):
        """Projection at scale 22 / 32 threads must land on Table III."""
        got = project("gap", "bfs", WorkloadSize.kronecker(22), 32)
        # anchor + startup
        assert got == pytest.approx(0.01636 + 2e-5, rel=0.03)

    def test_projection_doubles_with_scale(self):
        t22 = project("graphmat", "bfs", WorkloadSize.kronecker(22), 32)
        t23 = project("graphmat", "bfs", WorkloadSize.kronecker(23), 32)
        assert t23 == pytest.approx(2 * t22, rel=0.02)

    def test_unknown_anchor(self):
        with pytest.raises(ConfigError):
            project("graph500", "pagerank", WorkloadSize.kronecker(22), 32)

    def test_graphbig_pagerank_at_scale22(self):
        """docs/calibration.md quotes GraphBIG PageRank at ~47 s: one
        run is 100 sweeps of the 0.47 s per-sweep anchor."""
        got = project("graphbig", "pagerank", WorkloadSize.kronecker(22),
                      32)
        assert got == pytest.approx(47.0, rel=0.02)

    @pytest.mark.parametrize("system", ["gap", "graphbig", "graphmat",
                                        "powergraph"])
    def test_scalability_prices_pagerank_over_100_sweeps(self, system):
        from repro.systems import calibration

        sweep = calibration._ANCHORS[system]["pagerank"].time_32t_s
        tab = projected_scalability(system, "pagerank", scale=22,
                                    thread_counts=(32,))
        assert tab.mean_times[0] == pytest.approx(100 * sweep, rel=0.05)

    def test_scalability_table_shape(self):
        tab = projected_scalability("gap", thread_counts=(1, 2, 32))
        assert tab.threads == [1, 2, 32]
        assert tab.speedup()[0] == 1.0
