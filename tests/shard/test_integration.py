"""--shards plumbing: systems, config, CLI, suite manifest, serve.

The outer contract: a sharded run must be indistinguishable from a
serial one everywhere results are recorded (outputs, priced times,
counters, provenance digests), while the knob itself reaches every
execution layer.
"""

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.errors import ConfigError
from repro.service.daemon import ServeConfig
from repro.service.graphs import ResidentGraphManager
from repro.systems.registry import create_system


@pytest.fixture(scope="module")
def kron_ds(tmp_path_factory):
    from repro.datasets.homogenize import homogenize
    from repro.datasets.kronecker import KroneckerSpec, generate_kronecker

    el = generate_kronecker(KroneckerSpec(scale=9, weighted=True))
    return homogenize(el, tmp_path_factory.mktemp("shard-kron"))


@pytest.mark.parametrize("system,algos", [("gap", ("bfs", "sssp")),
                                          ("graph500", ("bfs",))])
def test_system_results_identical_under_sharding(kron_ds, system, algos):
    serial = create_system(system, n_threads=4)
    sharded = create_system(system, n_threads=4, shards=2)
    l0 = serial.load(kron_ds)
    l1 = sharded.load(kron_ds)
    try:
        for algo in algos:
            for root in (0, 3):
                r0 = serial.run(l0, algo, root=root)
                r1 = sharded.run(l1, algo, root=root)
                assert r0.time_s == r1.time_s
                assert r0.iterations == r1.iterations
                assert r0.counters == r1.counters
                for key in r0.output:
                    assert np.array_equal(r0.output[key], r1.output[key])
    finally:
        l1.close()  # the loaded graph owns the shard pool


def test_shard_metrics_emitted_only_when_sharded(kron_ds, tmp_path,
                                                 monkeypatch):
    import repro.shard.engine as engine_mod
    from repro.observability import Tracer

    def traced(name, **kwargs):
        # The default tracer is a no-op; give each system a live one,
        # as the runner does.
        system = create_system("gap", n_threads=4, **kwargs)
        system.tracer = Tracer(tmp_path / name)
        loaded = system.load(kron_ds)
        try:
            system.run(loaded, "bfs", root=0)
        finally:
            loaded.close()
        labels = dict(system="gap", algorithm="bfs", shards=2)
        return {key: system.tracer.metrics.counter(
                    f"epg_shard_{key}_total").value(**labels)
                for key in ("rounds", "local_rounds", "bytes")}

    assert traced("serial") == {"rounds": 0, "local_rounds": 0, "bytes": 0}
    # Which rounds of a graph this small cross is the engine's choice;
    # that every round is counted on one side or the other is not.
    default = traced("default", shards=2)
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    crossing = traced("crossing", shards=2)
    assert crossing["rounds"] > 0 and crossing["bytes"] > 0
    assert crossing["local_rounds"] == 0
    assert (default["rounds"] + default["local_rounds"]
            == crossing["rounds"])
    assert default["bytes"] <= crossing["bytes"]


def test_engine_cached_on_loaded_graph(kron_ds, monkeypatch):
    from repro.shard.engine import ShardEngine

    built = []
    init = ShardEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ShardEngine, "__init__", counting_init)
    system = create_system("gap", n_threads=4, shards=2)
    loaded = system.load(kron_ds)
    # bfs and sssp share the pull engine; reused, not rebuilt
    for algorithm, root in (("bfs", 0), ("sssp", 0), ("bfs", 1)):
        system.run(loaded, algorithm, root=root)
    assert len(built) == 1 and not built[0].closed
    loaded.close()
    assert built[0].closed
    loaded.close()  # idempotent
    system.run(loaded, "bfs", root=0)  # a later run starts a fresh pool
    assert len(built) == 2
    loaded.close()


def test_experiment_config_shards(tmp_path):
    cfg = ExperimentConfig(output_dir=tmp_path, shards=4)
    assert cfg.shards == 4
    # An execution detail: never in provenance dicts.
    assert "shards" not in cfg.to_dict()
    with pytest.raises(ConfigError, match="shards"):
        ExperimentConfig(output_dir=tmp_path, shards=0)


def test_system_rejects_bad_shards():
    from repro.errors import SystemCapabilityError

    with pytest.raises(SystemCapabilityError):
        create_system("gap", shards=0)


def test_cli_exposes_shards():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["run", "--output", "/tmp/x", "--shards",
                              "4"])
    assert args.shards == 4
    args = parser.parse_args(["serve", "--data-dir", "/tmp/x",
                              "--shards", "2"])
    assert args.shards == 2


def test_serve_manager_forwards_shards(tmp_path, monkeypatch):
    cfg = ServeConfig(data_dir=tmp_path, shards=3)
    assert cfg.shards == 3
    mgr = ResidentGraphManager(tmp_path, shards=3)
    assert mgr.shards == 3

    seen = {}

    def fake_create(system, **kwargs):
        seen.update(kwargs)
        raise RuntimeError("stop here")

    import repro.service.graphs as graphs_mod

    monkeypatch.setattr(graphs_mod, "create_system", fake_create)
    monkeypatch.setattr(mgr, "datasets", {"g": object()})
    monkeypatch.setattr(graphs_mod, "available_systems",
                        lambda: ["gap"])
    with pytest.raises(RuntimeError, match="stop here"):
        mgr._acquire("g", "gap", 4)
    assert seen.get("shards") == 3
