"""Tests for the one-command full-paper reproduction suite."""

import pytest

from repro.core.provenance import verify
from repro.core.suite import run_paper_suite


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    run_paper_suite(out, scale=9, n_roots=3, render_svg=True)
    return out


def test_report_written(suite_dir):
    report = (suite_dir / "REPORT.md").read_text()
    for caption in ("Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6",
                    "Fig 8", "Fig 9", "Table I", "Table II",
                    "Table III", "Fig 7"):
        assert caption in report, caption


def test_experiment_directories_complete(suite_dir):
    for sub in ("kron", "dota", "pat", "scaling"):
        assert (suite_dir / sub / "results.csv").exists(), sub
        assert (suite_dir / sub / "logs").is_dir(), sub


def test_figures_rendered(suite_dir):
    svgs = list((suite_dir / "figures").glob("*.svg"))
    names = {p.name for p in svgs}
    assert "fig2-time.svg" in names
    assert "fig5-speedup.svg" in names
    assert "fig9-pkg_watts.svg" in names
    # Fig 8 plots the real-world experiments, as REPORT.md's section does.
    fig8 = (suite_dir / "figures" / "fig8-bfs.svg").read_text()
    assert "dota-league" in fig8 and "cit-Patents" in fig8
    assert "kron-scale" not in fig8


def test_graphalytics_html_pages(suite_dir):
    pages = list((suite_dir / "graphalytics").glob("report-*.html"))
    assert {p.name for p in pages} == {
        "report-graphbig.html", "report-powergraph.html",
        "report-graphmat.html"}


def test_provenance_verifies(suite_dir):
    for sub in ("kron", "scaling"):
        ok, problems = verify(suite_dir / sub)
        assert ok, (sub, problems)


def test_table1_has_na_and_flaw_shape(suite_dir):
    report = (suite_dir / "REPORT.md").read_text()
    # cit-Patents SSSP N/A appears in the Table I block.  ("Table I:"
    # with the colon -- plain "Table I" also prefixes "Table III".)
    idx = report.index("Table I:")
    block = report[idx:report.index("Table II:")]
    assert "N/A" in block


def test_html_report_written(suite_dir):
    body = (suite_dir / "report.html").read_text()
    assert "<th>median</th>" in body
