"""Tests for the dataset catalog."""

import pytest

from repro.datasets.catalog import catalog
from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.datasets.realworld import cit_patents, dota_league

_GENERATORS = {
    "kronecker": lambda: generate_kronecker(KroneckerSpec(scale=8,
                                                          weighted=True)),
    "cit-patents": lambda: cit_patents(1.0 / 2048.0),
    "dota-league": lambda: dota_league(1.0 / 512.0),
}


def _entries():
    return {e.name: e for e in catalog()}


def test_three_paper_datasets_present():
    names = [e.name for e in catalog()]
    assert names == ["cit-patents", "dota-league", "kronecker"]


def test_published_sizes_recorded():
    entries = _entries()
    assert entries["cit-patents"].full_vertices == 3_774_768
    assert entries["dota-league"].full_edges == 50_870_313
    assert entries["kronecker"].full_vertices is None


def test_flags_match_generators():
    for name, entry in _entries().items():
        el = _GENERATORS[name]()
        assert el.directed == entry.directed, name
        assert el.weighted == entry.weighted, name


def test_cli_lists_catalog(capsys):
    from repro.cli import main

    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "dota-league" in out
    assert "3,774,768" in out


def test_unknown_dataset_rejected(tmp_path):
    """The CLI accepts exactly the dataset kinds an Experiment makes."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["homogenize", "--output", str(tmp_path),
              "--dataset", "twitter-2010"])
    assert exc.value.code == 2
