"""Engine lifecycle: worker pool, shared-memory hygiene, failure paths.

The crash tests run in subprocesses so a SIGKILLed worker or an
exit-without-close can be observed from outside: clean stderr (no
resource-tracker noise, no tracebacks), exit code 0 where promised,
and nothing left behind in ``/dev/shm``.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.frontier as frontier_mod
from repro.algorithms.pagerank import pagerank
from repro.errors import ConfigError, ShardError
from repro.graph.csr import CSRGraph
from repro.graph.frontier import out_arc_count, pulls
from repro.parallel.scheduler import resolve_jobs
import repro.shard.engine as engine_mod
from repro.shard import ops
from repro.shard.engine import ShardEngine, resolve_shards
from repro.shard.shm import ArenaSpec, ShmArena
from repro.systems.gap.bfs import dobfs
from repro.systems.gap.graph import GapGraph
from repro.systems.gap.sssp import delta_stepping
from repro.systems.graph500.bfs import bfs_bitmap
from tests.graph.test_sweeps import _same
from tests.shard.test_identity import multigraphs

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _graph(n=300, m=1500, seed=1, weighted=True):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    w = rng.uniform(0.001, 1.0, size=m) if weighted else None
    out = CSRGraph.from_arrays(src, dst, n, weights=w)
    inn = CSRGraph.from_arrays(dst, src, n, weights=w)
    return out, inn


def _run_script(body: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(body)],
                          capture_output=True, text=True, timeout=120,
                          env=env)


# ----------------------------------------------------------------------
# resolve_shards
# ----------------------------------------------------------------------
def test_resolve_shards_defaults_to_core_count():
    assert resolve_shards(None) == resolve_jobs(None)


@pytest.mark.parametrize("bad", [0, -1])
def test_resolve_shards_rejects_nonpositive(bad):
    with pytest.raises(ConfigError):
        resolve_shards(bad)


# ----------------------------------------------------------------------
# Arena basics
# ----------------------------------------------------------------------
def test_arena_roundtrip_and_idempotent_destroy():
    arrays = {"a": np.arange(7, dtype=np.int64),
              "b": np.linspace(0, 1, 5),
              "c": np.zeros(3, dtype=bool)}
    arena = ShmArena.create(arrays)
    try:
        for key, arr in arrays.items():
            assert np.array_equal(arena[key], arr)
        other = ShmArena.attach(arena.spec)
        other["a"][0] = 99
        assert arena["a"][0] == 99  # same pages, no copy
        other.close()
    finally:
        arena.destroy()
        arena.destroy()  # idempotent
    assert arena.closed


def test_attach_to_vanished_segment_raises():
    spec = ArenaSpec(segment="epg-shard-definitely-not-there",
                     layout=(("x", "<i8", (1,), 0),))
    with pytest.raises(ShardError, match="vanished"):
        ShmArena.attach(spec)


# ----------------------------------------------------------------------
# Engine lifecycle
# ----------------------------------------------------------------------
def test_process_pool_spawns_and_closes():
    out, inn = _graph()
    engine = ShardEngine(out, inn, n_shards=2, inline=False)
    assert not engine.inline
    assert len(engine._workers) == 1  # the parent computes shard 0
    assert all(p.is_alive() for p in engine._workers)
    engine.close()
    assert not engine._workers
    engine.close()  # idempotent
    assert os.listdir("/dev/shm") == []


def test_context_manager_cleans_up():
    out, inn = _graph()
    with ShardEngine(out, inn, n_shards=2, inline=False) as engine:
        assert any("epg-shard" in p.name for p in engine._workers)
    assert os.listdir("/dev/shm") == []


def test_inline_fallback_under_daemon_parent():
    """A daemonic parent (e.g. a suite cell worker) cannot fork: the
    engine must auto-select the inline path and still work."""
    def child(q):
        out, inn = _graph(n=60, m=200)
        engine = ShardEngine(out, inn, n_shards=3)
        q.put(engine.inline)
        engine.close()

    ctx = multiprocessing.get_context("fork")
    q = ctx.Queue()
    proc = ctx.Process(target=child, args=(q,), daemon=True)
    proc.start()
    inline = q.get(timeout=60)
    proc.join(timeout=60)
    assert inline is True
    assert proc.exitcode == 0


def test_inline_engine_has_no_segments():
    out, inn = _graph()
    engine = ShardEngine(out, inn, n_shards=4, inline=True)
    assert engine._static_arena is None and engine._dyn_arena is None
    assert len(engine._contexts) == 4
    engine.close()


# ----------------------------------------------------------------------
# Failure paths (observed from outside)
# ----------------------------------------------------------------------
# The graphs here are far below the engine's break-even, so every round
# would be served in the parent: the scripts pin ``_INLINE_ARCS`` to 0
# to drive a real superstep.
def test_sigkilled_worker_raises_shard_error_cleanly():
    """SIGKILL one worker mid-pool: the next superstep must raise
    ShardError naming the dead worker, leave /dev/shm empty, and emit
    no tracker noise or stray tracebacks on stderr."""
    proc = _run_script("""
        import numpy as np, os, signal
        import repro.shard.engine as engine_mod
        from repro.errors import ShardError
        from repro.graph.csr import CSRGraph
        from repro.shard.engine import ShardEngine

        engine_mod._INLINE_ARCS = 0
        rng = np.random.default_rng(1)
        n, m = 300, 1500
        out = CSRGraph.from_arrays(rng.integers(0, n, m),
                                   rng.integers(0, n, m), n)
        inn = CSRGraph.from_arrays(out.col_idx, out.source_ids(), n)
        engine = ShardEngine(out, inn, n_shards=2, inline=False,
                             step_timeout_s=5.0)
        os.kill(engine._workers[0].pid, signal.SIGKILL)
        try:
            engine.top_down(np.array([0], dtype=np.int64),
                            np.full(n, -1, dtype=np.int64))
        except ShardError as exc:
            assert "epg-shard-1" in str(exc), exc
            print("SHARD_ERROR_OK")
        assert os.listdir("/dev/shm") == []
        print("SHM_CLEAN")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "SHARD_ERROR_OK" in proc.stdout
    assert "SHM_CLEAN" in proc.stdout
    assert "Traceback" not in proc.stderr
    assert "resource_tracker" not in proc.stderr


def test_exit_without_close_is_clean():
    """Forgetting close(): the exit-finalizer chain (engine before
    arenas) must
    shut down without a segfault, tracker warnings, or leaked
    segments."""
    proc = _run_script("""
        import numpy as np
        import repro.shard.engine as engine_mod
        from repro.graph.csr import CSRGraph
        from repro.shard.engine import ShardEngine

        engine_mod._INLINE_ARCS = 0
        rng = np.random.default_rng(0)
        n, m = 300, 1500
        out = CSRGraph.from_arrays(rng.integers(0, n, m),
                                   rng.integers(0, n, m), n)
        inn = CSRGraph.from_arrays(out.col_idx, out.source_ids(), n)
        engine = ShardEngine(out, inn, n_shards=2, inline=False)
        engine.top_down(np.array([0], dtype=np.int64),
                        np.full(n, -1, dtype=np.int64))
        print("DONE")  # exits with live workers and mapped arenas
    """)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert "DONE" in proc.stdout
    assert "Traceback" not in proc.stderr
    assert "resource_tracker" not in proc.stderr
    assert os.listdir("/dev/shm") == []


def test_round_results_outlive_close():
    """A superstep's rings own their memory: read after ``close()``
    unmapped the arena the shards wrote them to, they hold what they
    held before.  A view into the arena would SIGSEGV the script, which
    is why it runs in a subprocess."""
    proc = _run_script("""
        import numpy as np
        import repro.shard.engine as engine_mod
        from repro.graph.csr import CSRGraph
        from repro.shard import ops
        from repro.shard.engine import ShardEngine

        engine_mod._INLINE_ARCS = 0
        rng = np.random.default_rng(0)
        n, m = 300, 1500
        out = CSRGraph.from_arrays(rng.integers(0, n, m),
                                   rng.integers(0, n, m), n)
        inn = CSRGraph.from_arrays(out.col_idx, out.source_ids(), n)
        with ShardEngine(out, inn, n_shards=2, inline=False) as engine:
            engine.begin_bfs(0)
            rings = engine._superstep(ops.OP_TD, frontier=np.arange(n // 2))
            before = [(ids.tolist(), vals.tolist()) for ids, vals, _ in rings]
        assert engine.closed
        assert all(ids for ids, _ in before), before
        after = [(ids.tolist(), vals.tolist()) for ids, vals, _ in rings]
        assert after == before
        print("READ_OK")
    """)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert "READ_OK" in proc.stdout


def test_pool_worker_hosting_engine_exits_cleanly():
    """A non-daemonic ProcessPoolExecutor worker (the suite's --jobs
    cell workers, which also SIG_IGN SIGTERM) hosting a process-backed
    engine must shut down promptly at executor shutdown: its exit path
    runs ``util._exit_function``, which joins children *before* plain
    atexit would fire -- the engine's finalizer has to win that race
    or the worker deadlocks forever (the --jobs x --shards
    regression)."""
    proc = _run_script("""
        import signal
        import numpy as np
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        def cell(_):
            # The suite's cell workers ignore SIGTERM (checkpointing
            # parents drain them); reproduce that hostile inheritance.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            import repro.shard.engine as engine_mod
            from repro.graph.csr import CSRGraph
            from repro.shard.engine import ShardEngine
            engine_mod._INLINE_ARCS = 0
            rng = np.random.default_rng(3)
            n, m = 200, 800
            out = CSRGraph.from_arrays(rng.integers(0, n, m),
                                       rng.integers(0, n, m), n)
            inn = CSRGraph.from_arrays(out.col_idx, out.source_ids(), n)
            engine = ShardEngine(out, inn, n_shards=2, inline=False)
            assert not engine.inline
            ids, _ = engine.top_down(np.array([0], dtype=np.int64),
                                     np.full(n, -1, dtype=np.int64))
            return int(ids.size)   # exit WITHOUT close(): the worker's
                                   # finalizer chain must handle it

        if __name__ == "__main__":
            with ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=get_context("fork")) as pool:
                assert pool.submit(cell, 0).result(timeout=60) > 0
            print("POOL_SHUTDOWN_OK")
        """)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert "POOL_SHUTDOWN_OK" in proc.stdout
    assert "Traceback" not in proc.stderr
    assert "resource_tracker" not in proc.stderr
    assert os.listdir("/dev/shm") == []


def test_orphaned_workers_self_reap():
    """SIGKILL the engine's owner: shard workers must notice the
    parent is gone and exit on their own (no zombie pool blocked on a
    ``go`` token that will never come), after which the shared
    resource tracker sweeps the leaked segments."""
    inner = textwrap.dedent("""
        import numpy as np, os, sys, time
        import repro.shard.engine as engine_mod
        from repro.graph.csr import CSRGraph

        engine_mod.ORPHAN_POLL_S = 0.3
        rng = np.random.default_rng(5)
        n, m = 200, 800
        out = CSRGraph.from_arrays(rng.integers(0, n, m),
                                   rng.integers(0, n, m), n)
        inn = CSRGraph.from_arrays(out.col_idx, out.source_ids(), n)
        engine = engine_mod.ShardEngine(out, inn, n_shards=2,
                                        inline=False)
        print(" ".join(str(p.pid) for p in engine._workers),
              flush=True)
        time.sleep(120)   # parent is SIGKILLed long before this ends
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    owner = subprocess.Popen([sys.executable, "-c", inner], env=env,
                             stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(p) for p in owner.stdout.readline().split()]
        assert len(pids) == 1
        os.kill(owner.pid, signal.SIGKILL)
        owner.wait(timeout=30)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            alive = [p for p in pids if _pid_alive(p)]
            if not alive and os.listdir("/dev/shm") == []:
                break
            time.sleep(0.2)
        assert not alive, f"orphaned shard workers survived: {alive}"
        assert os.listdir("/dev/shm") == []
    finally:
        owner.stdout.close()
        for p in pids:
            if _pid_alive(p):
                os.kill(p, signal.SIGKILL)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def test_worker_exception_surfaces_without_breaking_pool(monkeypatch):
    """An op exception lands in the ring header, raises ShardError in
    the parent, and the pool keeps serving supersteps afterwards."""
    real = ops._OPS[ops.OP_TD]

    def failing_on_7(ctx):
        if ctx.frontier[0] == 7:
            raise RuntimeError("injected")
        real(ctx)

    # Patched before the pool forks, so the workers inherit it.
    monkeypatch.setitem(ops._OPS, ops.OP_TD, failing_on_7)
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    out, inn = _graph()
    parent = np.full(out.n_vertices, -1, dtype=np.int64)
    with ShardEngine(out, inn, n_shards=2, inline=False) as engine:
        with pytest.raises(ShardError, match="shard"):
            engine.top_down(np.array([7], dtype=np.int64), parent)
        ids, examined = engine.top_down(np.array([0], dtype=np.int64),
                                        parent)
        assert (engine.rounds, engine.local_rounds) == (1, 0)
        assert np.all(np.diff(ids) > 0)
        assert examined >= ids.size


# ----------------------------------------------------------------------
# Rounds served in the parent obey the same discipline
# ----------------------------------------------------------------------
@pytest.mark.parametrize("inline", [True, False])
def test_closed_engine_refuses_every_round(inline):
    out, inn = _graph()
    engine = ShardEngine(out, inn, n_shards=2, inline=inline)
    assert not engine.closed
    engine.close()
    assert engine.closed
    frontier = np.array([0], dtype=np.int64)
    parent = np.full(out.n_vertices, -1, dtype=np.int64)
    for call in (lambda: engine.top_down(frontier, parent),
                 lambda: engine.bottom_up(frontier, parent),
                 lambda: engine.relax(frontier, 0)):
        with pytest.raises(ShardError, match="engine is closed"):
            call()


@pytest.mark.parametrize("inline", [True, False])
def test_relax_rounds_below_pull_share_never_cross(inline, monkeypatch):
    """A relax round below ``PULL_SHARE`` pushes, and a pushed round is
    served in the parent however many arcs it has: it adds to
    ``local_rounds``, never to ``rounds``.  One at or above it pulls and
    crosses.  Either way the kernel matches serial."""
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    g = _gap_graph()
    seen = {True: 0, False: 0}
    with ShardEngine(g.out, g.inn, n_shards=2, inline=inline) as engine:
        relax = engine.relax

        def checked(members, mode):
            part = engine._local.out_parts[mode]
            dense = pulls(part, out_arc_count(part.row_ptr, members))
            before = engine.rounds, engine.local_rounds
            result = relax(members, mode)
            assert (engine.rounds - before[0],
                    engine.local_rounds - before[1]) == (
                        (1, 0) if dense else (0, 1))
            seen[dense] += 1
            return result

        engine.relax = checked
        for root in range(0, g.n, 50):
            assert _same(delta_stepping(g, root, 0.25, engine),
                         delta_stepping(g, root, 0.25))
    assert seen[True] and seen[False]


@pytest.mark.parametrize("report", ["crossing round", "close"])
def test_worker_death_during_local_rounds_is_reported(report, monkeypatch):
    """A worker SIGKILLed while the parent serves rounds itself goes
    unnoticed by them (they need no worker) and is reported by the next
    round that crosses, or reaped by ``close()``; either way nothing is
    left in /dev/shm."""
    out, inn = _graph()
    n = out.n_vertices
    parent = np.full(n, -1, dtype=np.int64)
    engine = ShardEngine(out, inn, n_shards=2, inline=False,
                         step_timeout_s=5.0)
    try:
        engine.begin_bfs(0)
        victim = engine._workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()
        frontier, _ = engine.top_down(np.array([0], dtype=np.int64), parent)
        engine.bottom_up(frontier, parent)
        assert (engine.rounds, engine.local_rounds) == (0, 2)
        if report == "crossing round":
            monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
            with pytest.raises(ShardError, match="epg-shard-1"):
                engine.top_down(frontier, parent)
            assert engine.closed
    finally:
        engine.close()
    assert os.listdir("/dev/shm") == []


# ----------------------------------------------------------------------
# The parent computes shard 0
# ----------------------------------------------------------------------
def _gap_graph():
    out, inn = _graph()
    out.attach_transpose(inn)
    return GapGraph(out=out, n=out.n_vertices, directed=True)


def test_parent_shard_exception_drains_the_round(monkeypatch):
    """An op failing in the parent's own shard 0 is raised as the usual
    ShardError only after the worker's token is collected: no stale
    ``done`` token is left for the next round, which matches serial."""
    real = ops._OPS[ops.OP_TD]
    armed = [True]

    def fail_once_in_parent(ctx):
        if ctx.shard == 0 and armed:
            armed.clear()
            raise RuntimeError("injected")
        real(ctx)

    monkeypatch.setitem(ops._OPS, ops.OP_TD, fail_once_in_parent)
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    g = _gap_graph()
    parent = np.full(g.n, -1, dtype=np.int64)
    with ShardEngine(g.out, g.inn, n_shards=2, inline=False) as engine:
        with pytest.raises(ShardError, match="shard 0 "):
            engine.top_down(np.array([0], dtype=np.int64), parent)
        assert not engine.closed
        # The worker's token for the failed round was consumed.
        assert not engine._done.acquire(True, 0.5)
        assert _same(bfs_bitmap(g.out, 3, engine), bfs_bitmap(g.out, 3))
        assert engine.rounds > 0


def test_interrupt_in_parent_shard_closes_engine(monkeypatch):
    """A BaseException from the parent's op leaves a worker token
    outstanding, so the engine closes before it propagates."""
    real = ops._OPS[ops.OP_TD]

    def interrupt_in_parent(ctx):
        if ctx.shard == 0:
            raise KeyboardInterrupt
        real(ctx)

    monkeypatch.setitem(ops._OPS, ops.OP_TD, interrupt_in_parent)
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    out, inn = _graph()
    parent = np.full(out.n_vertices, -1, dtype=np.int64)
    frontier = np.array([0], dtype=np.int64)
    engine = ShardEngine(out, inn, n_shards=2, inline=False)
    worker = engine._workers[0]
    try:
        with pytest.raises(KeyboardInterrupt):
            engine.top_down(frontier, parent)
        assert engine.closed
        assert not worker.is_alive()
        assert os.listdir("/dev/shm") == []
        with pytest.raises(ShardError, match="engine is closed"):
            engine.top_down(frontier, parent)
    finally:
        engine.close()


def test_three_shards_fork_two_workers_and_match_serial(monkeypatch):
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    g = _gap_graph()
    with ShardEngine(g.out, g.inn, n_shards=3, inline=False) as engine:
        assert [p.name for p in engine._workers] == ["epg-shard-1",
                                                     "epg-shard-2"]
        assert _same(dobfs(g, 0, 15.0, 18.0, engine),
                     dobfs(g, 0, 15.0, 18.0))
        assert _same(delta_stepping(g, 0, 0.25, engine),
                     delta_stepping(g, 0, 0.25))
        assert _same(pagerank(g.out, sweeps=engine), pagerank(g.out))
        assert engine.rounds > 0 and engine.local_rounds == 0
    assert os.listdir("/dev/shm") == []


# ----------------------------------------------------------------------
# Spin, then block
# ----------------------------------------------------------------------
def _cpu_ticks(pid: int) -> int:
    """User + system CPU time of ``pid`` in clock ticks (fields 14 and
    15 of ``/proc/<pid>/stat``; the name before them may hold spaces)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads /proc/<pid>/stat")


@needs_proc
@pytest.mark.parametrize("window", [None, 0.6], ids=["shipped", "long"])
def test_idle_worker_stops_spinning(window, monkeypatch):
    """After a kernel a worker polls for its next token for one window,
    then blocks: its CPU time stops growing.  The long window shows
    the spin itself, so the test can tell the two apart."""
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    monkeypatch.setattr(engine_mod, "_usable_cpus", lambda: 64)
    if window is not None:
        monkeypatch.setattr(engine_mod, "SPIN_S", window)
    g = _gap_graph()
    with ShardEngine(g.out, g.inn, n_shards=2, inline=False) as engine:
        assert engine._spin_s == engine_mod.SPIN_S > 0
        pid = engine._workers[0].pid
        assert _same(delta_stepping(g, 0, 0.25, engine),
                     delta_stepping(g, 0, 0.25))
        if window is not None:
            t0 = _cpu_ticks(pid)
            time.sleep(window / 2)
            assert _cpu_ticks(pid) > t0, "the worker never spun"
        time.sleep(engine_mod.SPIN_S + 0.3)
        t0 = _cpu_ticks(pid)
        time.sleep(0.5)
        assert _cpu_ticks(pid) - t0 <= 1
    assert os.listdir("/dev/shm") == []


@needs_proc
def test_engine_on_fewer_cpus_than_shards_never_spins(monkeypatch):
    """A CPU set smaller than the shard count would put a spinning
    worker on the parent's CPU: the engine blocks at once instead."""
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    monkeypatch.setattr(engine_mod, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(engine_mod, "SPIN_S", 5.0)  # a spin would show
    g = _gap_graph()
    with ShardEngine(g.out, g.inn, n_shards=2, inline=False) as engine:
        assert engine._spin_s == 0
        pid = engine._workers[0].pid
        assert _same(delta_stepping(g, 0, 0.25, engine),
                     delta_stepping(g, 0, 0.25))
        t0 = _cpu_ticks(pid)
        time.sleep(0.5)
        assert _cpu_ticks(pid) - t0 <= 1
    assert os.listdir("/dev/shm") == []


def test_workers_carry_their_names_outside_python():
    """``pgrep epg-shard`` sees a pool: the OS name is the worker's."""
    out, inn = _graph()
    with ShardEngine(out, inn, n_shards=3, inline=False) as engine:
        for proc in engine._workers:
            comm = Path(f"/proc/{proc.pid}/comm")
            if not comm.exists():
                pytest.skip("no /proc/<pid>/comm")
            deadline = time.monotonic() + 10
            while (comm.read_text().strip() != proc.name
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert comm.read_text().strip() == proc.name


def test_spinning_pool_with_more_workers_than_cpus_matches_serial(
        monkeypatch):
    """Spinning forced on with more workers than CPUs: every token is
    still taken exactly once per round (no lost or stolen ``go`` /
    ``done``), so many crossing rounds in a row match serial."""
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    monkeypatch.setattr(engine_mod, "_usable_cpus", lambda: 64)
    shards = min(len(os.sched_getaffinity(0)) + 2, 6)
    g = _gap_graph()
    t0 = time.monotonic()
    with ShardEngine(g.out, g.inn, n_shards=shards, inline=False,
                     step_timeout_s=30.0) as engine:
        assert engine._spin_s > 0
        for root in range(0, g.n, 37):
            assert _same(dobfs(g, root, 15.0, 18.0, engine),
                         dobfs(g, root, 15.0, 18.0))
            assert _same(delta_stepping(g, root, 0.25, engine),
                         delta_stepping(g, root, 0.25))
        assert _same(pagerank(g.out, sweeps=engine), pagerank(g.out))
        assert not engine._done.acquire(False)  # no token left over
    assert time.monotonic() - t0 < 60
    assert os.listdir("/dev/shm") == []


# ----------------------------------------------------------------------
# Merging rings is concatenating them
# ----------------------------------------------------------------------
@pytest.mark.parametrize("inline", [True, False],
                         ids=["inline", "process"])
def test_rings_concatenate_to_ascending_ids(inline):
    """The invariant ``ShardEngine.merge`` rests on: each shard emits
    sorted ids of its own range only, so for every superstep of every op
    the rings, concatenated in shard order, are strictly ascending.
    Every round crosses (``_INLINE_ARCS`` 0) and every relax round
    pulls (``PULL_SHARE`` 0), so all four ops run on the shards in
    every example: the root has an out-arc, so its level crosses
    top-down under ``bfs_bitmap`` and bottom-up under ``dobfs`` with
    alpha 1e6."""
    seen = set()

    @given(multigraphs().filter(lambda g: g.out.n_edges > 0),
           st.integers(1, 5), st.data())
    @settings(max_examples=20 if inline else 5, deadline=None)
    def check(g, shards, data):
        root = data.draw(st.sampled_from(
            np.flatnonzero(np.diff(g.out.row_ptr)).tolist()))
        rounds = []
        with ShardEngine(g.out, g.inn, n_shards=shards,
                         inline=inline) as engine:
            superstep = engine._superstep

            def recorded(op, *args, **kwargs):
                rings = superstep(op, *args, **kwargs)
                rounds.append((op, [r[0] for r in rings]))
                return rings

            engine._superstep = recorded
            # A high alpha sends dobfs bottom-up early, beta 1 keeps it
            # there.
            for alpha, beta in ((15.0, 18.0), (1e6, 1.0)):
                dobfs(g, root, alpha, beta, engine)
            bfs_bitmap(g.out, root, engine)
            delta_stepping(g, root, 0.25, engine)
            pagerank(g.out, sweeps=engine)
        bounds = engine.partition.bounds
        for op, ids in rounds:
            for k, own in enumerate(ids):
                assert np.all((own >= bounds[k]) & (own < bounds[k + 1]))
            assert np.all(np.diff(np.concatenate(ids)) > 0)
            seen.add(op)

    with mock.patch.object(engine_mod, "_INLINE_ARCS", 0), \
            mock.patch.object(frontier_mod, "PULL_SHARE", 0.0):
        check()
    assert seen == {ops.OP_TD, ops.OP_BU, ops.OP_RELAX, ops.OP_PR}
