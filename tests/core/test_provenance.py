"""Tests for experiment provenance capture/verify."""

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.provenance import capture, digest_file, verify
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def done_experiment(tmp_path_factory):
    cfg = ExperimentConfig(
        output_dir=tmp_path_factory.mktemp("prov"), scale=8, n_roots=2,
        systems=("gap",), algorithms=("bfs",))
    Experiment(cfg).run_all()
    return cfg


def test_capture_writes_record(done_experiment):
    path = capture(done_experiment)
    assert path.name == "provenance.json"
    text = path.read_text()
    assert "results_digest" in text
    assert "numpy" in text


def test_verify_clean_directory(done_experiment):
    capture(done_experiment)
    ok, problems = verify(done_experiment.output_dir)
    assert ok, problems


def test_verify_detects_tampered_results(done_experiment):
    capture(done_experiment)
    csv = done_experiment.output_dir / "results.csv"
    csv.write_text(csv.read_text().replace("gap", "gap2"))
    ok, problems = verify(done_experiment.output_dir)
    assert not ok
    assert any("digest" in p for p in problems)
    # Restore for other tests (module-scoped fixture).
    Experiment(done_experiment).run_all()
    capture(done_experiment)


def test_verify_missing_record(tmp_path):
    ok, problems = verify(tmp_path)
    assert not ok
    assert problems == ["no provenance.json"]


def test_capture_requires_results(tmp_path):
    cfg = ExperimentConfig(output_dir=tmp_path)
    with pytest.raises(ConfigError):
        capture(cfg)


def test_digest_stable_and_content_sensitive(tmp_path):
    a = tmp_path / "a"
    a.write_text("hello")
    assert digest_file(a) == digest_file(a)
    b = tmp_path / "b"
    b.write_text("hello!")
    assert digest_file(a) != digest_file(b)


def test_digest_is_blockwise_but_unchanged(tmp_path):
    """Digests pinned from the whole-file ``read_bytes()`` hash (commit
    2af891b): empty, and 2.2 MiB -- two full blocks and a partial."""
    (tmp_path / "empty").write_bytes(b"")
    (tmp_path / "big").write_bytes(bytes(range(256)) * 9001)
    assert digest_file(tmp_path / "empty") == \
        "cae66941d9efbd404e4d88758ea67670"
    assert digest_file(tmp_path / "big") == \
        "7eda5fdbefff3f96abd083e5e2afb2f3"


def test_rerun_reproduces_digest(tmp_path_factory):
    """The determinism promise, checked through the digest."""
    def run(d):
        cfg = ExperimentConfig(output_dir=d, scale=8, n_roots=2,
                               systems=("graph500",),
                               algorithms=("bfs",))
        Experiment(cfg).run_all()
        return digest_file(d / "results.csv")

    d1 = run(tmp_path_factory.mktemp("r1"))
    d2 = run(tmp_path_factory.mktemp("r2"))
    assert d1 == d2
