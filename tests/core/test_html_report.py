"""Tests for EPG*'s own HTML report."""

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.html_report import render_epg_html
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    cfg = ExperimentConfig(
        output_dir=tmp_path_factory.mktemp("html"),
        dataset="kronecker", scale=9, n_roots=4,
        algorithms=("bfs", "pagerank"))
    return Experiment(cfg).run_all()


def test_renders_valid_page(analysis, tmp_path):
    path = render_epg_html(analysis, tmp_path / "report.html")
    body = path.read_text()
    assert body.startswith("<!DOCTYPE html>")
    assert body.count("<h2>") >= 3


def test_distributions_not_single_trials(analysis, tmp_path):
    """The whole point vs Fig 7: quartiles and n are on the page."""
    body = render_epg_html(analysis, tmp_path / "r.html").read_text()
    assert "<th>median</th>" in body
    assert "<th>q1</th>" in body
    assert "<th>rsd</th>" in body


def test_inline_svg_figures(analysis, tmp_path):
    from repro.viz import render_all_figures

    rendered = render_all_figures(analysis, tmp_path / "figures")
    figures = [p for fig in sorted(rendered) for p in rendered[fig]]
    body = render_epg_html(analysis, tmp_path / "r.html",
                           figures=figures).read_text()
    assert body.count("<svg") == len(figures) > 0
    assert "<figcaption>fig2-time</figcaption>" in body


def test_no_figures_mode(analysis, tmp_path):
    body = render_epg_html(analysis, tmp_path / "r.html").read_text()
    assert "<svg" not in body


def test_iterations_table_present(analysis, tmp_path):
    body = render_epg_html(analysis, tmp_path / "r.html").read_text()
    assert "PageRank iterations" in body


def test_empty_analysis_rejected(tmp_path):
    from repro.core.analysis import Analysis

    with pytest.raises(ConfigError):
        render_epg_html(Analysis([]), tmp_path / "r.html")
