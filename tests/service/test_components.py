"""Worker pool, batching, manifest, and resident-graph manager."""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service.batching import (BatchingExecutor, Job, _corrupt_output,
                                    summarize, validate_output)
from repro.service.graphs import GraphSpec, ResidentGraphManager
from repro.service.manifest import (MANIFEST_NAME, ServedGraph,
                                    ServedManifest)
from repro.service.workers import Promise, WorkerPool


class TestPromise:
    def test_first_writer_wins(self):
        p = Promise()
        assert p.fulfill(42)
        assert not p.fail("fault", "too late")
        assert p.wait(0) == ("ok", 42)

    def test_fail_then_fulfill_keeps_error(self):
        p = Promise()
        assert p.fail("timeout", "deadline")
        assert not p.fulfill(1)
        assert p.wait(0) == ("error", ("timeout", "deadline"))

    def test_wait_times_out_to_none(self):
        assert Promise().wait(0.01) is None


class _Quick:
    def __init__(self):
        self.ran = threading.Event()

    def run(self, ctx):
        self.ran.set()

    def abandon(self, reason):
        pass


class _Wedged:
    """Cooperatively hangs until the watchdog abandons it."""

    def __init__(self):
        self.abandon_reason = None

    def run(self, ctx):
        ctx.abandoned.wait(5.0)

    def abandon(self, reason):
        self.abandon_reason = reason


class TestWorkerPool:
    def test_runs_submitted_tasks(self):
        pool = WorkerPool(2, wedge_timeout_s=5.0)
        pool.start()
        try:
            tasks = [_Quick() for _ in range(4)]
            for t in tasks:
                pool.submit(t)
            for t in tasks:
                assert t.ran.wait(2.0)
        finally:
            pool.stop()

    def test_watchdog_quarantines_and_replaces(self):
        pool = WorkerPool(1, wedge_timeout_s=0.08)
        pool.start()
        try:
            wedged = _Wedged()
            pool.submit(wedged)
            deadline = time.monotonic() + 3.0
            while wedged.abandon_reason is None \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert wedged.abandon_reason == "worker wedged"
            assert pool.quarantined == 1
            # The replacement worker keeps the pool serviceable.
            after = _Quick()
            pool.submit(after)
            assert after.ran.wait(2.0)
        finally:
            pool.stop()

    def test_idle_worker_tracking_and_hook(self):
        class Blocker(_Quick):
            def __init__(self):
                super().__init__()
                self.release = threading.Event()

            def run(self, ctx):
                self.ran.set()
                self.release.wait(5.0)

        pool = WorkerPool(1, wedge_timeout_s=5.0)
        freed = threading.Event()
        pool.on_idle = freed.set
        pool.start()
        try:
            assert pool.has_idle_worker()
            blocker = Blocker()
            pool.submit(blocker)
            # Busy from the moment of submission, not of pick-up.
            assert not pool.has_idle_worker()
            assert blocker.ran.wait(2.0)
            assert not freed.is_set()
            blocker.release.set()
            assert freed.wait(2.0)
            assert pool.has_idle_worker()
        finally:
            pool.stop()

    def test_quarantine_restores_idle_capacity(self):
        pool = WorkerPool(1, wedge_timeout_s=0.08)
        freed = threading.Event()
        pool.on_idle = freed.set
        pool.start()
        try:
            pool.submit(_Wedged())
            assert not pool.has_idle_worker()
            assert freed.wait(3.0)      # the replacement worker
            assert pool.has_idle_worker()
        finally:
            pool.stop()
        # The wedged thread's late exit must not count a second time.
        assert pool._outstanding == 0

    def test_task_exception_does_not_kill_worker(self):
        class Boom:
            def __init__(self):
                self.abandoned = None

            def run(self, ctx):
                raise RuntimeError("kernel exploded")

            def abandon(self, reason):
                self.abandoned = reason

        pool = WorkerPool(1, wedge_timeout_s=5.0)
        pool.start()
        try:
            boom = Boom()
            pool.submit(boom)
            after = _Quick()
            pool.submit(after)
            assert after.ran.wait(2.0)
            assert boom.abandoned == "internal error"
        finally:
            pool.stop()


# ----------------------------------------------------------------------
# Batching against a fake system: verifies coalescing without kernels.
# ----------------------------------------------------------------------

class _FakeResult:
    def __init__(self, algorithm, root, n):
        self.system = "fake"
        self.algorithm = algorithm
        self.time_s = 0.001
        self.root = root
        self.iterations = 2
        parent = np.arange(n, dtype=np.int64)
        self.output = {"parent": parent} if algorithm == "bfs" else {
            "labels": np.zeros(n, dtype=np.int64)}
        self.counters = {}


class _FakeLoaded:
    n_vertices = 16


class _FakeSystem:
    def __init__(self, calls, gate=None):
        self.calls = calls
        self.gate = gate

    def run_many(self, loaded, algorithm, roots=(), **params):
        self.calls.append(tuple(roots))
        if self.gate is not None:
            self.gate(tuple(roots))
        if not roots:
            return [_FakeResult(algorithm, None, loaded.n_vertices)]
        return [_FakeResult(algorithm, r, loaded.n_vertices)
                for r in roots]


class _FakeManager:
    def __init__(self, gate=None):
        self.calls = []
        self.gate = gate

    @contextlib.contextmanager
    def lease(self, graph, system, n_threads):
        yield _FakeSystem(self.calls, self.gate), _FakeLoaded()


class _InlinePool:
    """Runs each batch synchronously on the submitting thread.  Looks
    fully busy unless ``idle`` is set, so groups linger by default."""

    def __init__(self, idle=False):
        self.idle = idle

    def has_idle_worker(self):
        return self.idle

    def submit(self, task):
        class _Ctx:
            abandoned = threading.Event()
        task.run(_Ctx())


def make_job(root=0, *, algorithm="bfs", fault=None, solo=False):
    return Job(graph="g", system="fake", algorithm=algorithm,
               n_threads=2, root=root, fault=fault, solo=solo)


def frozen_clock():
    """Time stands still: no linger window ever elapses."""
    return 0.0


class TestBatching:
    def test_same_key_jobs_coalesce_into_one_sweep(self):
        mgr = _FakeManager()
        ex = BatchingExecutor(_InlinePool(), mgr, window_s=60.0,
                              max_batch=3)
        jobs = [make_job(root=r) for r in (3, 1, 3)]
        for job in jobs:
            ex.submit(job)          # third submit hits max_batch
        assert mgr.calls == [(3, 1, 3)]
        summaries = [j.promise.wait(0)[1] for j in jobs]
        assert [s["root"] for s in summaries] == [3, 1, 3]

    def test_rootless_batch_fulfills_every_job(self):
        # run_many executes a rootless kernel once; every co-batched
        # job must still get the (aliased) result, not just the first.
        mgr = _FakeManager()
        ex = BatchingExecutor(_InlinePool(), mgr, window_s=60.0,
                              max_batch=3)
        jobs = [make_job(root=None, algorithm="wcc")
                for _ in range(3)]
        for job in jobs:
            ex.submit(job)
        assert mgr.calls == [()]
        for job in jobs:
            outcome = job.promise.wait(0)
            assert outcome is not None
            kind, summary = outcome
            assert kind == "ok" and summary["components"] == 1

    def test_solo_job_flushes_alone(self):
        mgr = _FakeManager()
        ex = BatchingExecutor(_InlinePool(), mgr, window_s=60.0,
                              max_batch=8)
        ex.submit(make_job(root=1, solo=True))
        ex.submit(make_job(root=2, solo=True))
        assert mgr.calls == [(1,), (2,)]

    def test_crash_fault_spares_co_batched_jobs(self):
        class _Fault:
            kind = "crash"

        mgr = _FakeManager()
        ex = BatchingExecutor(_InlinePool(), mgr, window_s=60.0,
                              max_batch=2)
        doomed = make_job(root=5, fault=_Fault())
        innocent = make_job(root=6)
        ex.submit(doomed)
        ex.submit(innocent)
        assert doomed.promise.wait(0) == \
            ("error", ("fault", "injected crash"))
        kind, summary = innocent.promise.wait(0)
        assert kind == "ok" and summary["root"] == 6
        assert mgr.calls == [(6,)]

    def test_corrupt_fault_fails_validation_for_its_query_only(self):
        class _Fault:
            kind = "corrupt"

        mgr = _FakeManager()
        ex = BatchingExecutor(_InlinePool(), mgr, window_s=60.0,
                              max_batch=2)
        poisoned = make_job(root=4, fault=_Fault())
        clean = make_job(root=7)
        ex.submit(poisoned)
        ex.submit(clean)
        kind, detail = poisoned.promise.wait(0)
        assert kind == "error" and detail[0] == "invalid"
        assert clean.promise.wait(0)[0] == "ok"

    def test_draining_rejects_new_jobs(self):
        ex = BatchingExecutor(_InlinePool(), _FakeManager(),
                              window_s=60.0)
        ex.stop()
        assert ex.submit(make_job()) is False

    def test_idle_pool_runs_a_job_without_the_window_elapsing(self):
        mgr = _FakeManager()
        ex = BatchingExecutor(_InlinePool(idle=True), mgr,
                              window_s=60.0, clock=frozen_clock)
        for root in (4, 5):
            job = make_job(root=root)
            ex.submit(job)
            assert job.promise.wait(0)[0] == "ok"
        assert mgr.calls == [(4,), (5,)]

    def test_busy_pool_coalesces_until_a_worker_frees(self):
        mgr = _FakeManager()
        pool = _InlinePool()
        ex = BatchingExecutor(pool, mgr, window_s=60.0, max_batch=8,
                              clock=frozen_clock)
        jobs = [make_job(root=r) for r in (3, 1, 3)]
        other = make_job(root=9, algorithm="sssp")
        for job in jobs + [other]:
            ex.submit(job)
        assert mgr.calls == []          # every worker busy: linger
        pool.idle = True
        pool.on_idle()                  # what a freed worker calls
        # One sweep per group, longest-waiting group first.
        assert mgr.calls == [(3, 1, 3), (9,)]
        assert all(j.promise.done for j in jobs + [other])

    def test_real_pool_coalesces_behind_a_busy_worker(self):
        """The same, end to end on a one-worker :class:`WorkerPool`:
        the first job takes the idle worker at once; what arrives
        while it runs becomes a single sweep the moment it finishes."""
        started, release = threading.Event(), threading.Event()

        def gate(roots):
            if roots == (0,):
                started.set()
                assert release.wait(5.0)

        mgr = _FakeManager(gate)
        pool = WorkerPool(1, wedge_timeout_s=30.0)
        ex = BatchingExecutor(pool, mgr, window_s=60.0, max_batch=8,
                              clock=frozen_clock)
        pool.start()
        try:
            first = make_job(root=0)
            ex.submit(first)
            assert started.wait(2.0)
            waiting = [make_job(root=r) for r in (1, 2, 3)]
            for job in waiting:
                ex.submit(job)
            assert mgr.calls == [(0,)]
            release.set()
            for job in [first] + waiting:
                assert job.promise.wait(2.0)[0] == "ok"
            assert mgr.calls == [(0,), (1, 2, 3)]
        finally:
            release.set()
            pool.stop()

    def test_linger_window_flushes_on_time(self):
        mgr = _FakeManager()
        ex = BatchingExecutor(_InlinePool(), mgr, window_s=0.02,
                              max_batch=64)
        ex.start()
        try:
            job = make_job(root=2)
            ex.submit(job)
            assert job.promise.wait(2.0)[0] == "ok"
            assert mgr.calls == [(2,)]
        finally:
            ex.stop()


class TestValidation:
    def test_bfs_accepts_consistent_parent(self):
        out = {"parent": np.arange(8, dtype=np.int64)}
        assert validate_output("bfs", out, 3) is None

    def test_bfs_rejects_bad_parent_root(self):
        out = {"parent": np.arange(8, dtype=np.int64)}
        out["parent"][3] = -7
        assert "parent" in validate_output("bfs", out, 3)

    def test_sssp_rejects_nonzero_root_distance(self):
        dist = np.zeros(8)
        assert validate_output("sssp", {"dist": dist}, 0) is None
        dist[0] = np.inf
        assert validate_output("sssp", {"dist": dist}, 0) is not None

    def test_generic_rejects_nonfinite_floats(self):
        out = {"pr": np.ones(4)}
        assert validate_output("pagerank", out, None) is None
        out["pr"][1] = np.nan
        assert "pr" in validate_output("pagerank", out, None)

    def test_corrupt_output_never_mutates_the_original(self):
        out = {"parent": np.arange(8, dtype=np.int64)}
        damaged = _corrupt_output("bfs", out, 2)
        assert out["parent"][2] == 2
        assert damaged["parent"][2] == -7

    def test_summarize_counts_reached(self):
        result = _FakeResult("bfs", 0, 8)
        result.output["parent"][5] = -1
        s = summarize(result, 8)
        assert s["reached"] == 7
        assert s["root"] == 0 and s["n_vertices"] == 8


class TestManifest:
    def entry(self, name="kron6"):
        return ServedGraph(name=name, spec="kron:6",
                           directory=f"graphs/{name}", bytes=123)

    def test_round_trip(self, tmp_path):
        m = ServedManifest(tmp_path)
        m.record(self.entry())
        again = ServedManifest.load(tmp_path)
        assert again.graphs["kron6"] == self.entry()

    def test_missing_file_is_cold_start(self, tmp_path):
        assert ServedManifest.load(tmp_path).graphs == {}

    def test_torn_file_is_cold_start(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text('{"version": 1, "gra')
        assert ServedManifest.load(tmp_path).graphs == {}

    def test_foreign_version_is_cold_start(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            '{"version": 99, "graphs": [{"bogus": true}]}')
        assert ServedManifest.load(tmp_path).graphs == {}

    def test_malformed_entry_is_an_error(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            '{"version": 1, "graphs": [{"name": "x"}]}')
        with pytest.raises(ServiceError):
            ServedManifest.load(tmp_path)


class TestGraphSpec:
    @pytest.mark.parametrize("text,name,dataset", [
        ("kron:8", "kron8", "kronecker"),
        ("cit-patents", "cit-patents", "cit-patents"),
        ("dota-league:0.5", "dota-league", "dota-league"),
    ])
    def test_parses_good_specs(self, text, name, dataset):
        spec = GraphSpec.parse(text)
        assert spec.name == name and spec.dataset == dataset

    @pytest.mark.parametrize("text", [
        "kron", "kron:zero", "kron:0", "kron:31",
        "cit-patents:2.0", "cit-patents:x", "mystery-graph",
    ])
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ServiceError):
            GraphSpec.parse(text)


class TestResidentGraphManager:
    def make_manager(self, tmp_path, **kw):
        return ResidentGraphManager(tmp_path / "serve", seed=7, **kw)

    def test_add_graph_publishes_manifest(self, tmp_path):
        mgr = self.make_manager(tmp_path)
        dataset = mgr.add_graph("kron:6")
        assert dataset.n_vertices == 64
        assert (tmp_path / "serve" / MANIFEST_NAME).exists()
        assert "kron6" in ServedManifest.load(tmp_path / "serve").graphs

    def test_lease_loads_and_reuses_resident_entry(self, tmp_path):
        mgr = self.make_manager(tmp_path)
        mgr.add_graph("kron:6")
        with mgr.lease("kron6", "gap", 2) as (system, loaded):
            assert loaded.n_vertices == 64
        first = mgr.stats()["resident_entries"]
        with mgr.lease("kron6", "gap", 2):
            pass
        assert mgr.stats()["resident_entries"] == first
        assert len(first) == 1 and first[0]["in_use"] == 0

    def test_unknown_graph_is_a_service_error(self, tmp_path):
        mgr = self.make_manager(tmp_path)
        with pytest.raises(ServiceError):
            with mgr.lease("nope", "gap", 2):
                pass

    def test_lru_eviction_respects_budget_and_pins(self, tmp_path):
        mgr = self.make_manager(tmp_path, max_resident_bytes=1)
        mgr.add_graph("kron:6")
        with mgr.lease("kron6", "gap", 2):
            # Pinned: over budget but never evicted mid-use.
            assert len(mgr._residents) == 1
        with mgr.lease("kron6", "gap", 4):
            # The idle t2 entry is evicted to make room.
            keys = set(mgr._residents)
            assert keys == {("kron6", "gap", 4)}

    def test_eviction_closes_shard_pools(self, tmp_path):
        """An evicted resident used to keep its workers and arenas
        until ``__del__`` got round to them."""
        import multiprocessing
        import os

        def shard_children():
            return [p for p in multiprocessing.active_children()
                    if p.name.startswith("epg-shard-")]

        mgr = self.make_manager(tmp_path, max_resident_bytes=1, shards=2)
        mgr.add_graph("kron:6")
        with mgr.lease("kron6", "gap", 2) as (system, loaded):
            system.run(loaded, "bfs", root=0)
            assert len(shard_children()) == 1 and os.listdir("/dev/shm")
        with mgr.lease("kron6", "gap", 4):
            assert set(mgr._residents) == {("kron6", "gap", 4)}
            assert shard_children() == [] and os.listdir("/dev/shm") == []
        with mgr.lease("kron6", "gap", 4) as (system, loaded):
            system.run(loaded, "sssp", root=0)
        mgr.close()
        assert shard_children() == [] and os.listdir("/dev/shm") == []

    def test_one_sweep_at_a_time_per_resident_entry(self, tmp_path):
        mgr = self.make_manager(tmp_path)
        mgr.add_graph("kron:6")
        with mgr.lease("kron6", "gap", 2):
            held = mgr._residents["kron6", "gap", 2].run_lock
            assert held.locked()
            # A different structure is a different lock.
            with mgr.lease("kron6", "gap", 4):
                assert mgr._residents["kron6", "gap", 4].run_lock \
                    is not held
        assert not held.locked()
        with pytest.raises(RuntimeError):
            with mgr.lease("kron6", "gap", 2):
                raise RuntimeError("kernel exploded")
        assert not held.locked()

    def test_concurrent_first_leases_load_once(self, tmp_path,
                                               monkeypatch):
        from repro.service import graphs

        mgr = self.make_manager(tmp_path)
        mgr.add_graph("kron:6")
        loads = []
        first_in, second_in = threading.Event(), threading.Event()
        release = threading.Event()
        real_create = graphs.create_system

        def create(name, **kw):
            system = real_create(name, **kw)
            real_load = system.load

            def load(dataset, cache=None):
                loads.append(name)
                (second_in if first_in.is_set() else first_in).set()
                assert release.wait(10.0)
                return real_load(dataset, cache=cache)

            system.load = load
            return system

        monkeypatch.setattr(graphs, "create_system", create)
        entries = []

        def lease():
            with mgr.lease("kron6", "gap", 2) as (_, loaded):
                entries.append(loaded)

        threads = [threading.Thread(target=lease) for _ in range(2)]
        threads[0].start()
        assert first_in.wait(5.0)
        threads[1].start()
        # The second thread must wait for the first load, not start
        # its own; give it every chance to get that wrong.
        assert not second_in.wait(0.2)
        release.set()
        for t in threads:
            t.join(10.0)
            assert not t.is_alive()
        assert loads == ["gap"]
        assert len(entries) == 2 and entries[0] is entries[1]
        assert mgr._loading == {}

    def test_failed_load_hands_the_turn_to_the_waiter(self, tmp_path,
                                                      monkeypatch):
        from repro.service import graphs

        mgr = self.make_manager(tmp_path)
        mgr.add_graph("kron:6")
        real_create = graphs.create_system
        attempts = []

        def create(name, **kw):
            attempts.append(name)
            if len(attempts) == 1:
                raise ServiceError("disk on fire")
            return real_create(name, **kw)

        monkeypatch.setattr(graphs, "create_system", create)
        with pytest.raises(ServiceError):
            with mgr.lease("kron6", "gap", 2):
                pass
        assert mgr._loading == {}
        with mgr.lease("kron6", "gap", 2) as (_, loaded):
            assert loaded.n_vertices == 64

    def test_recover_rebuilds_corrupt_graph(self, tmp_path):
        data_dir = tmp_path / "serve"
        mgr = self.make_manager(tmp_path)
        mgr.add_graph("kron:6")
        # Damage the dataset: byte total no longer matches the roster.
        victim = next((data_dir / "graphs" / "kron6").rglob("*.wel"))
        victim.write_bytes(victim.read_bytes() + b"garbage")
        fresh = self.make_manager(tmp_path)
        assert fresh.recover() == 1
        assert "kron6" in fresh.datasets
        with fresh.lease("kron6", "gap", 2) as (_, loaded):
            assert loaded.n_vertices == 64

    def test_recover_intact_graph_without_rebuild(self, tmp_path):
        mgr = self.make_manager(tmp_path)
        mgr.add_graph("kron:6")
        fresh = self.make_manager(tmp_path)
        assert fresh.recover() == 0
        assert "kron6" in fresh.datasets
