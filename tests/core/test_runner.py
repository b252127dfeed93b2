"""Unit tests for the run-phase executor."""

import dataclasses

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.logs import parse_log
from repro.core.runner import Runner
from repro.parallel.worker import CellWorker
from repro.systems.session import DatasetSession


def _runner(cfg, dataset) -> Runner:
    """A Runner on a session of its own, as a test owns it."""
    return Runner(cfg, dataset, DatasetSession(dataset))


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    cfg = ExperimentConfig(output_dir=tmp_path_factory.mktemp("run"),
                           scale=9, n_roots=3)
    exp = Experiment(cfg)
    exp.setup()
    dataset = exp.homogenize()
    return _runner(cfg, dataset)


def test_skips_unsupported_cells(runner):
    assert runner.run_system_algorithm("powergraph", "bfs", 32) is None
    assert runner.run_system_algorithm("graph500", "pagerank", 32) is None


def test_graph500_skips_real_world(tmp_path):
    from repro.datasets.homogenize import homogenize
    from repro.datasets.realworld import dota_league

    cfg = ExperimentConfig(output_dir=tmp_path, dataset="dota-league",
                           n_roots=2)
    dataset = homogenize(dota_league(1 / 512), tmp_path / "ds")
    r = _runner(cfg, dataset)
    assert r.run_system_algorithm("graph500", "bfs", 32) is None


def test_log_path_layout(runner):
    p = runner.log_path("gap", "bfs", 16)
    assert p.as_posix().endswith("logs/gap/bfs-t16.log")


def test_gap_log_has_all_roots(runner):
    path = runner.run_system_algorithm("gap", "bfs", 32)
    records = parse_log(path)
    roots = {r.root for r in records if r.metric == "time"}
    assert len(roots) == 3


def test_graph500_single_power_window(runner):
    path = runner.run_system_algorithm("graph500", "bfs", 32)
    records = parse_log(path)
    assert sum(1 for r in records if r.metric == "pkg_joules") == 1
    assert sum(1 for r in records if r.metric == "time") == 3


def test_pagerank_runs_n_roots_times(runner):
    """'For PageRank, we simply run the algorithm 32 times' (here 3)."""
    path = runner.run_system_algorithm("graphmat", "pagerank", 32)
    records = parse_log(path)
    assert sum(1 for r in records if r.metric == "time") == 3
    # Rootless runs carry root=-1.
    assert all(r.root == -1 for r in records if r.metric == "time")


def test_power_disabled(tmp_path):
    cfg = ExperimentConfig(output_dir=tmp_path, scale=8, n_roots=2,
                           measure_power=False,
                           systems=("gap",), algorithms=("bfs",))
    exp = Experiment(cfg)
    exp.setup()
    dataset = exp.homogenize()
    path = _runner(cfg, dataset).run_system_algorithm("gap", "bfs", 32)
    records = parse_log(path)
    assert not any("joule" in r.metric for r in records)


def test_trial_jitter_varies_but_kernel_output_cached(runner):
    """Multiple trials re-jitter the priced time without rerunning the
    kernel; values must differ across trials of the same root."""
    cfg = dataclasses.replace(runner.config, n_trials=3, n_roots=2)
    r2 = Runner(cfg, runner.dataset, runner.session)
    path = r2.run_system_algorithm("gap", "sssp", 32)
    records = parse_log(path)
    by_root: dict[int, set] = {}
    for rec in records:
        if rec.metric == "time":
            by_root.setdefault(rec.root, set()).add(rec.value)
    for root, vals in by_root.items():
        assert len(vals) == 3, f"trials of root {root} identical"


def test_power_traces_captured(tmp_path):
    """capture_power_traces writes one CSV per measured kernel window
    whose energy matches the RAPL log record."""
    import numpy as np

    from repro.core.logs import parse_log

    cfg = ExperimentConfig(output_dir=tmp_path, scale=8, n_roots=2,
                           systems=("gap",), algorithms=("bfs",),
                           capture_power_traces=True,
                           trace_sample_hz=200_000.0)
    exp = Experiment(cfg)
    exp.setup()
    dataset = exp.homogenize()
    path = _runner(cfg, dataset).run_system_algorithm("gap", "bfs", 32)
    traces = sorted((tmp_path / "traces").glob("gap-bfs-*.csv"))
    assert len(traces) == 2
    records = parse_log(path)
    pkg_by_root = {r.root: r.value for r in records
                   if r.metric == "pkg_joules"}
    for trace_path in traces:
        body = np.loadtxt(trace_path, delimiter=",", skiprows=1,
                          ndmin=2)
        root = int(trace_path.stem.split("-r")[1].split("-")[0])
        dt = 1.0 / cfg.trace_sample_hz
        trace_energy = body[:, 1].sum() * dt
        assert trace_energy == pytest.approx(pkg_by_root[root],
                                             rel=0.05)


def test_traces_off_by_default(tmp_path):
    cfg = ExperimentConfig(output_dir=tmp_path, scale=8, n_roots=2,
                           systems=("gap",), algorithms=("bfs",))
    exp = Experiment(cfg)
    exp.setup()
    dataset = exp.homogenize()
    _runner(cfg, dataset).run_system_algorithm("gap", "bfs", 32)
    assert not (tmp_path / "traces").exists()


class TestOutputValidation:
    @pytest.mark.parametrize("dataset", ["kronecker", "cit-patents"])
    def test_validation_passes_on_honest_systems(self, tmp_path, dataset):
        """On an unweighted dataset too: the oracle is built from the
        same weighted edges the systems run on."""
        cfg = ExperimentConfig(output_dir=tmp_path, dataset=dataset,
                               scale=8, realworld_factor=1.0 / 1024.0,
                               n_roots=2,
                               systems=("gap", "graph500", "graphmat"),
                               algorithms=("bfs", "sssp", "pagerank"),
                               validate_outputs=True)
        exp = Experiment(cfg)
        exp.setup()
        dataset = exp.homogenize()
        r = _runner(cfg, dataset)
        for sysname in cfg.systems:
            for algo in cfg.algorithms:
                r.run_system_algorithm(sysname, algo, 32)  # no raise

    def test_validation_catches_cheating_system(self, tmp_path,
                                                monkeypatch):
        """A system returning garbage must be rejected during the run
        phase (the Graph500 rule)."""
        import numpy as np

        from repro.errors import ValidationError
        from repro.systems import registry
        from repro.systems.gap import GapSystem

        class CheatingGap(GapSystem):
            name = "gap"  # masquerade in the registry lookup

            def _run_sssp(self, loaded, root, **kw):
                out, profile, it, counters = super()._run_sssp(
                    loaded, root, **kw)
                out["dist"] = np.zeros_like(out["dist"])  # garbage
                return out, profile, it, counters

        cfg = ExperimentConfig(output_dir=tmp_path, scale=8, n_roots=2,
                               systems=("gap",), algorithms=("sssp",),
                               validate_outputs=True)
        exp = Experiment(cfg)
        exp.setup()
        dataset = exp.homogenize()
        registry.available_systems()  # register the built-ins first
        monkeypatch.setitem(registry._FACTORIES, "gap", CheatingGap)
        with pytest.raises(ValidationError):
            _runner(cfg, dataset).run_system_algorithm("gap", "sssp", 32)


class TestThreadSweepBuildsOnce:
    """A structure is built once per Runner and priced per thread count:
    the sweep's bytes are the parent's (digests pinned at commit
    2af891b, when every thread count re-read and re-built), only the
    number of real builds changes."""

    RESULTS_SHA256 = (
        "328fcade80048fd6ee9617c6f2d2abcad8271af6c5025700c76102b7cfd95102")
    LOGS_SHA256 = (
        "e1d4c359ee8f35956df0cd29a9caa1d06a24e97de3657e3c74d9a114320b437a")

    @staticmethod
    def _sweep(out, **execution):
        import hashlib

        cfg = ExperimentConfig(output_dir=out, scale=8, n_roots=2,
                               thread_counts=(1, 2, 4, 8),
                               algorithms=("bfs", "sssp"), **execution)
        Experiment(cfg).run_all()
        logs = hashlib.sha256()
        for path in sorted((out / "logs").rglob("*.log")):
            logs.update(path.relative_to(out).as_posix().encode())
            logs.update(path.read_bytes())
        return (hashlib.sha256((out / "results.csv").read_bytes())
                .hexdigest(), logs.hexdigest())

    @pytest.fixture
    def builds(self, monkeypatch):
        """Every real ``_build`` as ``(system, n_threads)``."""
        from repro.systems import ALL_SYSTEM_NAMES, create_system

        calls = []
        for name in ALL_SYSTEM_NAMES:
            cls = type(create_system(name))

            def counted(self, edges, dataset, _build=cls._build):
                calls.append((self.name, self.n_threads))
                return _build(self, edges, dataset)

            monkeypatch.setattr(cls, "_build", counted)
        return calls

    def test_one_build_per_system_and_cut(self, tmp_path, builds):
        assert self._sweep(tmp_path) == (self.RESULTS_SHA256,
                                         self.LOGS_SHA256)
        # PowerGraph cuts into max(n_threads, 2) partitions: t=1 and
        # t=2 share a structure, t=4 and t=8 each need their own.
        assert builds == [
            ("gap", 1), ("graph500", 1), ("graphbig", 1), ("graphmat", 1),
            ("powergraph", 1), ("powergraph", 4), ("powergraph", 8)]

    def test_same_bytes_and_builds_through_the_disk_cache(self, tmp_path,
                                                          builds):
        cold = self._sweep(tmp_path / "cold", cache_dir=tmp_path / "cache")
        assert len(builds) == 7
        warm = self._sweep(tmp_path / "warm", cache_dir=tmp_path / "cache")
        assert len(builds) == 7  # every structure came off the disk
        assert cold == warm == (self.RESULTS_SHA256, self.LOGS_SHA256)

    def test_close_drops_the_built_structures(self, runner):
        worker = CellWorker()
        outcome, _ = worker.run_cell(runner.config, runner.dataset, "gap",
                                     "bfs", 4)
        assert outcome.status == "completed"
        session = worker.session(runner.dataset)
        assert session.builds and session.loads and session.interned
        assert worker._supervisors
        worker.close()
        assert not (session.builds or session.loads or session.interned
                    or session.answers or session.references)
        assert not worker._supervisors
        assert worker.session(runner.dataset) is not session
