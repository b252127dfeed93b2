"""A cell worker holds one dataset at a time, and every caller borrows it.

``CellWorker.session(dataset, cache)`` is the only session a worker
process keeps: a cell naming another dataset (or cache root) closes the
held one first, so a pool worker does not keep every experiment's
graphs for the whole suite.  A dataset is its directory *and what the
directory holds*: the same directory homogenized again with another
graph is another dataset.  The ``Runner`` and the Graphalytics harness
both load in the session.
"""

import dataclasses
import gc
import weakref

import pytest

import repro.systems.base as base
from repro.cache import ArtifactCache
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.graphalytics import GraphalyticsHarness
from repro.observability import Tracer
from repro.parallel.worker import (
    CellWorker,
    run_cell_task,
    run_graphalytics_task,
)
from repro.systems.base import GraphSystem, LoadedGraph


@pytest.fixture
def worker():
    """A pool worker's state, driven in this process."""
    worker = CellWorker(Tracer.capture_only())
    yield worker
    worker.close()


@pytest.fixture
def recorded(monkeypatch):
    """What each load made, in the list ``recorded["into"]`` names:
    weakrefs to the loaded graphs and to their interned arrays."""
    recorded = {"into": []}
    load, intern = GraphSystem.load, base._interned

    def loading(self, *args, **kwargs):
        loaded = load(self, *args, **kwargs)
        recorded["into"].append(weakref.ref(loaded))
        return loaded

    def interning(arrays, interned):
        out = intern(arrays, interned)
        recorded["into"].extend(weakref.ref(a) for a in out.values())
        return out

    monkeypatch.setattr(GraphSystem, "load", loading)
    monkeypatch.setattr(base, "_interned", interning)
    return recorded


def _cell(worker, tmp_path, dataset, system):
    cfg = ExperimentConfig(output_dir=tmp_path / dataset.name, n_roots=1)
    outcome, _ = run_cell_task(cfg, dataset, system, "bfs", 32,
                               worker=worker)
    assert outcome.status == "completed"


def test_a_new_dataset_closes_the_last_ones_loads(
        worker, recorded, tmp_path, kron10_dataset, dota_dataset,
        monkeypatch):
    closed = []
    close = LoadedGraph.close
    monkeypatch.setattr(LoadedGraph, "close",
                        lambda self: (closed.append(id(self)), close(self)))
    recorded["into"] = x_made = []
    for system in ("gap", "graphbig"):
        _cell(worker, tmp_path, kron10_dataset, system)
    x_loads = [ref for ref in x_made if isinstance(ref(), LoadedGraph)]
    x_load_ids = sorted(id(ref()) for ref in x_loads)
    assert len(x_loads) == 2 and len(x_made) > 2 and not closed

    recorded["into"] = []
    _cell(worker, tmp_path, dota_dataset, "graphbig")
    assert sorted(closed) == x_load_ids
    gc.collect()
    assert all(ref() is None for ref in x_made)


def test_a_graphalytics_cell_reuses_the_experiments_loads(
        worker, tmp_path, dota_dataset, monkeypatch):
    _cell(worker, tmp_path, dota_dataset, "graphbig")
    loads = []
    load = GraphSystem.load

    def counted(self, *args, **kwargs):
        loads.append(self.name)
        return load(self, *args, **kwargs)

    monkeypatch.setattr(GraphSystem, "load", counted)
    harness = GraphalyticsHarness(seed=7)
    for algorithm in ("bfs", "pagerank", "lcc"):
        result = run_graphalytics_task(harness, "graphbig", algorithm,
                                       dota_dataset, worker=worker)
        assert result.reported_s > 0
    assert loads == []
    run_graphalytics_task(harness, "graphmat", "bfs", dota_dataset,
                          worker=worker)
    assert loads == ["graphmat"]


def test_the_session_is_per_resolved_directory_and_cache_root(
        worker, tmp_path, kron10_dataset):
    held = worker.session(kron10_dataset)
    directory = kron10_dataset.directory
    respelled = dataclasses.replace(
        kron10_dataset, directory=directory / ".." / directory.name)
    assert worker.session(respelled) is held
    cached = worker.session(kron10_dataset,
                            ArtifactCache(tmp_path / "cache"))
    assert cached is not held and cached.cache is not None
    assert worker.session(kron10_dataset,
                          ArtifactCache(tmp_path / "cache")) is cached
    assert worker.session(kron10_dataset) is not cached



def _experiment_logs(worker, out, seed):
    """Run every cell of one validated experiment in ``out`` on
    ``worker``; return its native logs' bytes."""
    cfg = ExperimentConfig(
        output_dir=out, scale=6, seed=seed, n_roots=2,
        systems=("gap", "graphbig"), algorithms=("bfs", "sssp"),
        validate_outputs=True)
    exp = Experiment(cfg)
    exp.setup()
    dataset = exp.homogenize()
    for cell in exp._cells():
        outcome, _ = run_cell_task(cfg, dataset, *cell, worker=worker)
        assert outcome.status == "completed"
    logs = out / "logs"
    return {p.relative_to(logs).as_posix(): p.read_bytes()
            for p in sorted(logs.rglob("*")) if p.is_file()}


def test_a_rehomogenized_directory_is_another_dataset(worker, tmp_path):
    """Regression: the session was keyed on the directory alone, so a
    second experiment with another seed in the same output directory
    (``kron-scale6`` either way) ran on the first one's graph, and
    ``--validate`` checked it against the first one's reference."""
    shared = [_experiment_logs(worker, tmp_path / "shared", seed)
              for seed in (1, 2)]
    alone = []
    for seed in (1, 2):
        fresh = CellWorker(Tracer.capture_only())
        try:
            alone.append(_experiment_logs(fresh, tmp_path / f"s{seed}",
                                          seed))
        finally:
            fresh.close()
    assert shared[0] != shared[1]
    assert shared == alone


def test_a_graphalytics_cell_traces_nothing_on_the_workers_tracer(
        worker, tmp_path, dota_dataset):
    """The harness's kernel gets a tracer of its own, also on a system
    a Runner cell loaded (and gave the worker's tracer)."""
    _cell(worker, tmp_path, dota_dataset, "graphbig")
    before = worker.tracer._next_id
    run_graphalytics_task(GraphalyticsHarness(seed=7), "graphbig",
                          "pagerank", dota_dataset, worker=worker)
    assert worker.tracer._next_id == before
