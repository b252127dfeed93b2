"""One ``DatasetSession`` owns everything loaded from one dataset.

``session.load(system)`` loads once per system, build knobs, thread
count and shard count; ``GraphSystem.load`` keeps one build per system
and build knobs, one copy of each array and one answer per shared
body in the session, as do a Runner's ``--validate`` references;
``close()`` closes every load and drops it all.  A load given no
session gets a private one and behaves the same way.
"""

import gc
import multiprocessing
import os
import weakref

import numpy as np
import pytest

import repro.shard.engine as engine_mod
import repro.systems.base as base
from repro.core.config import ExperimentConfig
from repro.core.runner import Runner
from repro.parallel.worker import CellWorker
from repro.systems import create_system
from repro.systems.base import GraphSystem, LoadedGraph
from repro.systems.session import DatasetSession


def _counted(monkeypatch, owner, name: str) -> list:
    """Record every call of ``owner.name`` by the id of its first
    argument (holding no reference to it)."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(id(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_load_per_system_threads_and_shards(kron10_dataset,
                                                monkeypatch):
    loads = _counted(monkeypatch, GraphSystem, "load")
    session = DatasetSession(kron10_dataset)
    first = session.load(create_system("gap", n_threads=4))
    assert session.load(create_system("gap", n_threads=4)) == first
    assert first[1].answers is session.answers
    others = [session.load(create_system(name, **knobs))
              for name, knobs in (("gap", {"n_threads": 8}),
                                  ("gap", {"n_threads": 4, "shards": 2}),
                                  ("gap", {"n_threads": 4,
                                           "weight_dtype": "int32"}),
                                  ("graphbig", {"n_threads": 4}))]
    assert len({id(loaded) for _, loaded in [first, *others]}) == 5
    assert len(loads) == len(session.loads) == 5
    session.close()


def test_one_build_per_system_and_cache_token(kron10_dataset, monkeypatch):
    builds = []
    for name in ("gap", "powergraph"):
        cls = type(create_system(name))

        def counted(self, edges, dataset, _build=cls._build):
            builds.append((self.name, *sorted(self._cache_token().items())))
            return _build(self, edges, dataset)

        monkeypatch.setattr(cls, "_build", counted)
    session = DatasetSession(kron10_dataset)
    for n_threads in (1, 2, 4, 8):
        for name in ("gap", "powergraph"):
            create_system(name, n_threads=n_threads).load(
                kron10_dataset, session=session)
    create_system("gap", weight_dtype="int32").load(kron10_dataset,
                                                    session=session)
    # PowerGraph cuts into max(n_threads, 2) partitions: t=1 and t=2
    # share a structure, t=4 and t=8 each need their own.
    assert len(builds) == len(set(builds)) == len(session.builds) == 5
    assert sorted(session.builds) == sorted(builds)


def test_close_closes_every_load_and_frees_what_it_held(kron10_dataset,
                                                       monkeypatch):
    closed = _counted(monkeypatch, LoadedGraph, "close")
    session = DatasetSession(kron10_dataset)
    for name in ("gap", "graphbig", "graphmat"):
        system, loaded = session.load(create_system(name, n_threads=4))
        system.run(loaded, "kcore")
    loads = [weakref.ref(loaded) for _, loaded in session.loads.values()]
    load_ids = sorted(id(ref()) for ref in loads)
    arrays = [weakref.ref(a) for bucket in session.interned.values()
              for a in bucket]
    answers = [weakref.ref(item) for answer in session.answers.values()
               for item in (answer if isinstance(answer, tuple)
                            else (answer,))
               if isinstance(item, np.ndarray)]
    assert arrays and answers
    del system, loaded
    session.close()
    assert sorted(closed) == load_ids
    assert not (session.loads or session.builds or session.interned
                or session.answers)
    gc.collect()
    assert all(ref() is None for ref in loads + arrays + answers)
    session.close()                 # idempotent


def _shard_workers() -> list[str]:
    return [p.name for p in multiprocessing.active_children()
            if p.name.startswith("epg-shard-")]


def test_a_sharded_load_leaves_nothing_after_close(kron10_dataset,
                                                   monkeypatch):
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    shm = set(os.listdir("/dev/shm"))
    session = DatasetSession(kron10_dataset)
    system, loaded = session.load(create_system("gap", n_threads=4,
                                                shards=2))
    system.run(loaded, "bfs", root=int(kron10_dataset.roots[0]))
    assert _shard_workers() and set(os.listdir("/dev/shm")) - shm
    del system, loaded
    session.close()
    gc.collect()
    assert not _shard_workers()
    assert not set(os.listdir("/dev/shm")) - shm


def test_a_load_without_a_session_memoizes_and_interns(kron10_dataset,
                                                       monkeypatch):
    peels = _counted(monkeypatch, base, "peel_cores")
    arrays = []
    intern = base._interned

    def recorded(built, interned):
        out = intern(built, interned)
        arrays.extend(out.values())
        return out

    monkeypatch.setattr(base, "_interned", recorded)
    system = create_system("graphbig")
    loaded = system.load(kron10_dataset)
    first = system.run(loaded, "kcore")
    again = system.run(loaded, "kcore")
    assert len(peels) == 1
    assert again.output["core"] is first.output["core"]
    assert arrays and not any(a.flags.writeable for a in arrays)


@pytest.fixture
def worker():
    worker = CellWorker()
    yield worker
    worker.close()


@pytest.fixture
def runner(tmp_path, kron10_dataset, worker):
    cfg = ExperimentConfig(output_dir=tmp_path, n_roots=2,
                           validate_outputs=True)
    return Runner(cfg, kron10_dataset, worker.session(kron10_dataset))


def test_an_unsupported_cell_loads_nothing(runner, monkeypatch):
    loads = _counted(monkeypatch, GraphSystem, "load")
    assert runner.run_system_algorithm("powergraph", "bfs", 32) is None
    assert runner.run_system_algorithm("graph500", "pagerank", 32) is None
    assert not loads and not runner.session.loads


def test_closing_the_session_drops_the_validation_reference(runner,
                                                            worker):
    assert runner.run_system_algorithm("gap", "sssp", 4) is not None
    session = runner.session
    assert session.references and session.loads
    worker.close()
    assert not session.references and not session.loads
