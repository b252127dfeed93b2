"""The paper's central evidence (Sec. II): Graphalytics' timing hooks
wrap different execution spans per platform, so its cross-platform
comparison is unfair.  These tests pin that flaw down quantitatively.
"""

from functools import partial

import pytest

from repro.graphalytics import GraphalyticsHarness
from repro.parallel.worker import CellWorker
from repro.systems import create_system


@pytest.fixture(scope="module")
def harness():
    return GraphalyticsHarness(n_threads=32, seed=7)


@pytest.fixture(scope="module")
def cell(harness):
    """One Graphalytics cell on a worker's session, as a pool runs it."""
    worker = CellWorker()
    yield partial(worker.run_graphalytics, harness)
    worker.close()


def test_graphmat_report_includes_file_read(cell, dota_dataset):
    """'Graphalytics reports a 6.3 second runtime but 2.7 seconds of
    that time GraphMat is simply reading the input file from disk.'"""
    r = cell("graphmat", "pagerank", dota_dataset)
    assert "file_read" in r.breakdown
    assert r.reported_s == pytest.approx(
        r.breakdown["file_read"] + r.breakdown["build"]
        + r.breakdown["algorithm"], rel=1e-9)
    assert r.breakdown["file_read"] > 0


def test_graphbig_report_excludes_load(cell, dota_dataset):
    """'the GraphBIG timing does not include the time to read the
    dota-league file.'"""
    r = cell("graphbig", "pagerank", dota_dataset)
    assert r.reported_s == pytest.approx(r.breakdown["algorithm"])
    assert "file_read" not in r.breakdown


def test_without_read_graphmat_would_be_much_faster(cell, dota_dataset):
    """'If the time to read in the text file was ignored then GraphMat
    would complete nearly twice as quickly.'  At dota-league's size the
    load phases dominate GraphMat's reported PageRank time."""
    r = cell("graphmat", "pagerank", dota_dataset)
    algo_only = r.breakdown["algorithm"]
    assert r.reported_s > 1.5 * algo_only


def test_epg_and_graphalytics_disagree_on_graphmat(cell, dota_dataset):
    """EPG* times only the kernel; Graphalytics' GraphMat cell adds the
    load phases -- the two frameworks report different numbers for the
    same execution."""
    r = cell("graphmat", "pagerank", dota_dataset)
    s = create_system("graphmat", n_threads=32)
    loaded = s.load(dota_dataset)
    epg_time = s.run(loaded, "pagerank",
                     max_iterations=10).time_s
    assert r.reported_s > epg_time
    # And the difference is explained by the load phases.
    assert r.reported_s - r.breakdown["algorithm"] == pytest.approx(
        r.breakdown["file_read"] + r.breakdown["build"], rel=1e-9)


def test_powergraph_makespan_includes_ingest(cell, dota_dataset):
    """Table I's PowerGraph rows sit near-constant across algorithms:
    ingest + engine spin-up dominates whatever kernel runs."""
    cheap = cell("powergraph", "wcc", dota_dataset)
    assert cheap.breakdown["load"] > 0
    assert cheap.reported_s > cheap.breakdown["algorithm"]


def test_powergraph_rows_nearly_constant(cell, dota_dataset):
    times = [cell("powergraph", a, dota_dataset).reported_s
             for a in ("bfs", "pagerank", "wcc", "sssp")]
    assert max(times) / min(times) < 1.5
