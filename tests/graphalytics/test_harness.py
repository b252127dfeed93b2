"""Tests of the simulated Graphalytics comparator."""

import math
from functools import partial

import pytest

from repro.errors import SystemCapabilityError
from repro.graphalytics import (
    GRAPHALYTICS_ALGORITHMS,
    GRAPHALYTICS_PLATFORMS,
    GraphalyticsHarness,
)
from repro.parallel.worker import CellWorker


@pytest.fixture(scope="module")
def harness():
    return GraphalyticsHarness(n_threads=32, seed=7)


@pytest.fixture(scope="module")
def cell(harness):
    """One Graphalytics cell on a worker's session, as a pool runs it."""
    worker = CellWorker()
    yield partial(worker.run_graphalytics, harness)
    worker.close()


class TestCoverage:
    def test_platforms_match_paper_tables(self):
        assert set(GRAPHALYTICS_PLATFORMS) == {"graphbig", "powergraph",
                                               "graphmat"}

    def test_algorithm_columns_match_table1(self):
        assert tuple(GRAPHALYTICS_ALGORITHMS) == (
            "bfs", "cdlp", "lcc", "pagerank", "sssp", "wcc")

    def test_no_gap_driver(self, cell, kron10_dataset):
        """Graphalytics v0.3 had no GAP platform."""
        with pytest.raises(SystemCapabilityError):
            cell("gap", "bfs", kron10_dataset)

    def test_unknown_algorithm(self, cell, kron10_dataset):
        with pytest.raises(SystemCapabilityError):
            cell("graphmat", "bc", kron10_dataset)


class TestSsspNA:
    def test_sssp_na_on_unweighted(self, cell, patents_dataset):
        """Table I: cit-Patents SSSP is N/A (unweighted dataset)."""
        r = cell("graphmat", "sssp", patents_dataset)
        assert r.not_available
        assert r.display == "N/A"
        assert math.isnan(r.reported_s)

    def test_sssp_runs_on_weighted(self, cell, dota_dataset):
        r = cell("graphmat", "sssp", dota_dataset)
        assert not r.not_available
        assert r.reported_s > 0


class TestPowerGraphBfsDriver:
    def test_bfs_runs_despite_missing_toolkit(self, cell, kron10_dataset):
        """The Graphalytics driver supplies BFS for PowerGraph, which is
        why Tables I-II have PowerGraph BFS cells while Figs 2/8 do
        not."""
        r = cell("powergraph", "bfs", kron10_dataset)
        assert r.reported_s > 0


class TestSingleRun:
    def test_one_run_per_experiment_is_deterministic(self, cell,
                                                     kron10_dataset):
        a = cell("graphbig", "bfs", kron10_dataset)
        b = cell("graphbig", "bfs", kron10_dataset)
        assert a.reported_s == b.reported_s  # same single-trial draw

    def test_matrix_covers_all_cells(self, harness, dota_dataset):
        results = harness.run_matrix(dota_dataset)
        assert len(results) == 3 * 6


class TestFixedIterationBudgets:
    def test_pagerank_budget(self, cell, kron10_dataset):
        """Graphalytics PR runs 10 iterations, not the epsilon criterion
        (the Table II vs Fig 4 discrepancy, Sec. IV-A)."""
        from repro.systems import create_system

        # Under EPG* rules GraphBIG needs far more than 10 sweeps.
        s = create_system("graphbig")
        loaded = s.load(kron10_dataset)
        converged = s.run(loaded, "pagerank", epsilon=6e-8)
        assert converged.iterations > 10
        # The Graphalytics cell prices exactly 10.
        r = cell("graphbig", "pagerank", kron10_dataset)
        fixed = s.run(loaded, "pagerank", epsilon=0.0, max_iterations=10)
        assert r.breakdown["algorithm"] == pytest.approx(
            fixed.time_s, rel=0.3)
