"""Cross-architecture repeatability (the paper's closing argument).

"Increasing hardware heterogeneity demands performance analysis be
easily repeatable on the target architecture."  These tests drive the
identical experiment on two machine models and check that the harness
reprices everything coherently.
"""

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.errors import ConfigError
from repro.machine import MachineSpec, haswell_server


def laptop() -> MachineSpec:
    """A modest 4-core/8-thread mobile part: lower core count, one
    memory channel pair, a tighter power envelope."""
    return MachineSpec(
        name="laptop-4c8t",
        sockets=1,
        cores_per_socket=4,
        smt=2,
        base_ghz=2.8,
        mem_bw_gbs=30.0,
        mem_bw_per_thread_gbs=12.0,
        ram_gb=16,
        idle_pkg_watts=4.5,
        idle_dram_watts=1.2,
        max_pkg_watts=28.0,
        max_dram_watts=4.0,
    )


def test_laptop_spec_sane():
    m = laptop()
    assert m.n_threads == 8
    assert m.ram_gb < haswell_server().ram_gb
    assert m.idle_pkg_watts < haswell_server().idle_pkg_watts


def test_thread_validation_follows_machine(tmp_path):
    """32 threads is fine on the server, rejected on the laptop."""
    ExperimentConfig(output_dir=tmp_path, thread_counts=(32,))
    with pytest.raises(ConfigError):
        ExperimentConfig(output_dir=tmp_path, machine=laptop(),
                         thread_counts=(32,))


@pytest.fixture(scope="module")
def both_runs(tmp_path_factory):
    out = {}
    for name, machine, threads in (
            ("server", haswell_server(), 8),
            ("laptop", laptop(), 8)):
        cfg = ExperimentConfig(
            output_dir=tmp_path_factory.mktemp(name), scale=9,
            n_roots=3, systems=("gap", "graphmat"),
            algorithms=("bfs",), thread_counts=(threads,),
            machine=machine)
        out[name] = Experiment(cfg).run_all()
    return out


def test_same_experiment_both_machines(both_runs):
    for analysis in both_runs.values():
        assert ("gap", "bfs", "kron-scale9", 8) in analysis.box("time")


def test_orderings_stable_across_machines(both_runs):
    """GAP beats GraphMat on both boxes (relative conclusions port)."""
    for analysis in both_runs.values():
        gap = analysis.median_time("gap", "bfs")
        gm = analysis.median_time("graphmat", "bfs")
        assert gap < gm


def test_laptop_runs_slower_at_equal_threads(both_runs):
    """8 laptop threads deliver less than 8 server cores (bandwidth and
    the shared-machine envelope both bind earlier)."""
    server = both_runs["server"].median_time("graphmat", "bfs")
    lap = both_runs["laptop"].median_time("graphmat", "bfs")
    # 8 laptop threads = 4 cores + 4 SMT siblings vs 8 full cores.
    assert lap > server


def test_laptop_power_envelope_respected(both_runs):
    power = both_runs["laptop"].power_box("pkg_watts", "bfs")
    for system, box in power.items():
        assert box.maximum <= laptop().max_pkg_watts * 1.01, system
