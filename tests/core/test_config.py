"""Tests for ExperimentConfig validation."""

import pytest

from repro.core.config import ExperimentConfig
from repro.errors import ConfigError


def _cfg(tmp_path, **kw):
    return ExperimentConfig(output_dir=tmp_path, **kw)


def test_defaults_mirror_paper(tmp_path):
    cfg = _cfg(tmp_path)
    assert cfg.n_roots == 32                 # Sec. III-B
    assert cfg.epsilon == pytest.approx(6e-8)  # Sec. IV-A
    assert cfg.thread_counts == (32,)
    assert cfg.machine.n_threads == 72


def test_rejects_unknown_dataset(tmp_path):
    with pytest.raises(ConfigError):
        _cfg(tmp_path, dataset="twitter")


def test_snap_requires_path(tmp_path):
    with pytest.raises(ConfigError):
        _cfg(tmp_path, dataset="snap-file")


def test_rejects_unknown_system(tmp_path):
    with pytest.raises(ConfigError):
        _cfg(tmp_path, systems=("gap", "ligra"))


def test_rejects_unknown_algorithm(tmp_path):
    with pytest.raises(ConfigError):
        _cfg(tmp_path, algorithms=("bfs", "apsp"))


def test_accepts_extension_algorithms(tmp_path):
    """bc/tc are registered extension kernels (Sec. V)."""
    cfg = _cfg(tmp_path, algorithms=("bc", "tc"))
    assert cfg.algorithms == ("bc", "tc")


def test_rejects_excess_threads(tmp_path):
    with pytest.raises(ConfigError):
        _cfg(tmp_path, thread_counts=(128,))


def test_rejects_bad_scale(tmp_path):
    with pytest.raises(ConfigError):
        _cfg(tmp_path, scale=0)


def test_rejects_bad_epsilon(tmp_path):
    with pytest.raises(ConfigError):
        _cfg(tmp_path, epsilon=0.0)


def test_to_dict_roundtrips_fields(tmp_path):
    d = _cfg(tmp_path, scale=9).to_dict()
    assert d["scale"] == 9
    assert d["systems"] == list(
        ("gap", "graph500", "graphbig", "graphmat", "powergraph"))
