"""The sharded superstep engine: persistent workers, semaphores, rings.

One :class:`ShardEngine` owns a partitioned copy of a single graph:

* a **static arena** (one shared-memory segment) holding the workers'
  push/pull CSR slices plus the out-degree vector -- written once,
  read-only for the engine's lifetime (shard 0's slices stay in the
  parent's own memory, its pull slice a view of the in-CSR);
* a **dynamic arena** holding the round state the parent and the shards
  exchange: the rank/distance double buffer, visited / in-frontier
  bitmaps, the broadcast frontier, two small control blocks, and one
  preallocated ``(ids, values, header)`` delta ring per shard.

Execution is parent-driven bulk-synchronous supersteps: the parent
writes the op code and round inputs, posts one ``go`` token to each of
the ``N - 1`` workers, runs shard 0's op itself on the same arena
arrays, collects one ``done`` token per worker, then merges the
per-shard rings by concatenating them.  Each shard owns one contiguous
vertex range and executes every arc into it
(:mod:`repro.shard.partition`), so a ring holds sorted ids of its own
range, rings come in shard order, and their concatenation is already
the sorted, duplicate-free merge: nothing dedups and nothing sorts.
A round that would gather fewer than :data:`_INLINE_ARCS`
arcs does not cross at all, and neither does a relax round that
pushes: the engine runs it on a
:class:`~repro.graph.sweeps.LocalSweeps` it keeps over the whole graph,
bound to the same round state.

The round trip is plain semaphores rather than an ``mp.Barrier`` on
purpose: a barrier hides a condition lock, and a worker SIGKILLed while
holding it deadlocks every timed wait that follows -- a semaphore has
no state a dead process can leave locked.  Each wait polls for
:data:`SPIN_S` before it blocks, when the engine's CPU set holds every
shard.  Workers are forked once
(:func:`repro.parallel.scheduler`'s context -- the same fork preference
as the suite's cell pool) and live until :meth:`ShardEngine.close`.

Failure discipline: an op exception -- in a worker or in the parent's
own shard 0 -- lands in that shard's ring header and the superstep
completes normally (the parent raises :class:`~repro.errors.ShardError`
after collecting every token, keeping the pool alive); a worker
*death* (crash, SIGKILL) stalls the token collection, which the parent
detects within its polling slice and converts into the same
``ShardError`` after tearing down workers and unlinking both arenas --
an aborted run leaves nothing in ``/dev/shm``.  Anything else that
escapes while tokens are outstanding (``KeyboardInterrupt``) closes the
engine first, so no stale ``done`` token outlives the round.

When ``n_shards == 1`` -- or when process fan-out is unavailable
(daemonic parent, e.g. a suite cell worker) -- the engine runs the very
same :mod:`repro.shard.ops` bodies inline in-process, so every caller
gets identical results through one code path.

The kernel-facing methods implement
:class:`repro.graph.sweeps.SweepExecutor`: the serial control loops
take an engine wherever they take a
:class:`~repro.graph.sweeps.LocalSweeps`, and no kernel has a sharded
twin.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import os
import signal
import time

import numpy as np

from repro.errors import ConfigError, ShardError
from repro.graph.csr import CSRGraph
from repro.graph.frontier import out_arc_count, pulls
from repro.graph.scratch import KernelScratch
from repro.graph.sweeps import LocalSweeps
from repro.parallel.scheduler import _mp_context, resolve_jobs
from repro.shard import ops
from repro.shard.partition import (
    ShardPartition,
    partition_graph,
    shard_out_slice,
)
from repro.shard.shm import ShmArena

__all__ = ["ShardEngine", "resolve_shards", "DEFAULT_STEP_TIMEOUT_S",
           "MESSAGE_BYTES"]

#: Generous per-superstep deadline: kernels at suite scales finish each
#: round in milliseconds, so a stuck round means a dead worker.
DEFAULT_STEP_TIMEOUT_S = 120.0

#: Accounting size of one exchanged delta: an int64 vertex id plus a
#: float64 value, the rings' actual element width.
MESSAGE_BYTES = 16

#: A ``top_down`` / ``bottom_up`` / ``relax`` round that would gather
#: fewer arcs than this is served in the parent -- by a
#: :class:`~repro.graph.sweeps.LocalSweeps` over the whole graph, on the
#: round state the shards read -- instead of crossing to them.  Both
#: sides return identical arrays, so this is only a constant factor.
#:
#: Measured per round inside real kernels (12 roots x dobfs, bfs_bitmap
#: and delta-stepping on the symmetrized Kronecker scale-13 graph, 2
#: shards, each side forced in turn, medians of 3 passes): a crossing
#: round costs 0.11-0.13 ms before it gathers anything (frontier
#: broadcast, a go and a done token per worker, the merge; 0.28 ms
#: bottom-up), and the whole local round costs 0.04 ms under 100 arcs,
#: 0.09 at 1-2 k, 0.14 at 3-5 k and 0.20 at 5-7 k for relax, 0.08 and
#: 0.11 at the last two for top-down.  Below about 5 000 arcs a round
#: therefore cannot pay for its superstep on any machine; 62 % of the
#: relax rounds of that pass are under it.  Where the two sides cross
#: *above* it depends on the machine (table and the 2-vCPU reading in
#: ``docs/sharding.md``), so this is the floor, not the break-even.
_INLINE_ARCS = 5000

#: How long a waiting side of the round trip polls its semaphore with
#: ``acquire(False)``, yielding the CPU between polls, before it falls
#: back to a blocking wait: a worker waiting for its next ``go`` token,
#: the parent waiting for the ``done`` tokens.  A token posted to a
#: blocked process costs a wake-up, and on a box with as many CPUs as
#: shards the woken worker preempts the parent that posted it, so the
#: two shards of a round run one after the other (OpenMP runtimes spin
#: at a barrier for the same reason before they sleep).  Only an engine
#: whose CPU set holds every shard at once spins (:func:`_usable_cpus`);
#: an idle worker stops using the CPU one window after its last round.
#:
#: Measured on a 2-vCPU x86 box (GAP delta-stepping, symmetrized
#: Kronecker scale 13, 32 roots, 2 shards, four passes): the gaps
#: between consecutive supersteps of one kernel are 0.23-0.34 ms at the
#: median, 1.0-1.4 ms at p90, 1.5-2.2 ms at p95 and 2.0-2.8 ms at p99,
#: so 2 ms covers about 95-99 % of them and none of the longer gaps
#: between kernels.  A polling worker starts its op a median 8 us after
#: the parent posts ``go`` (37 us, p90 81 us, when it blocks), and a
#: crossing relax superstep takes a median 0.30-0.37 ms instead of
#: 0.48.  ``bench/run.py --workload shard-sweep`` at windows of 0.5, 2
#: and 5 ms read ``p95_ms`` 12.1 / 11.8 / 11.1 and, in a slower pass of
#: the box, 15.0 / 15.1 / 13.7: past 0.5 ms the window matters less
#: than the box's own drift.
SPIN_S = 0.002

#: How often an idle worker wakes to check whether its parent is still
#: alive.  A worker orphaned by a hard-killed parent (which can never
#: send ``OP_SHUTDOWN``) exits within one poll instead of blocking on
#: ``go.acquire()`` forever.
ORPHAN_POLL_S = 5.0

#: ``multiprocessing.util.Finalize`` exit priorities (higher runs
#: first): the engine's shutdown must precede the arenas' unlink guards
#: (:data:`repro.shard.shm.ARENA_FINALIZE_PRIORITY`) so it still finds
#: live mappings -- ``mmap`` unmaps even while ndarrays reference it,
#: so the reverse order would segfault.
ENGINE_FINALIZE_PRIORITY = 20


def resolve_shards(shards: int | None) -> int:
    """``None`` means "one shard per core" (the suite's single CPU-count
    source, :func:`repro.parallel.scheduler.resolve_jobs`); otherwise
    validate the count."""
    if shards is None:
        return resolve_jobs(None)
    if shards < 1:
        raise ConfigError(f"shards must be >= 1, got {shards}")
    return int(shards)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which a
    container or ``taskset`` narrows below the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _spin_acquire(sem, window_s: float, count: int = 1) -> int:
    """Take up to ``count`` tokens from ``sem`` without blocking,
    polling for at most ``window_s`` seconds and yielding the CPU
    between polls; returns how many were taken (see :data:`SPIN_S`)."""
    taken = 0
    deadline = time.perf_counter() + window_s
    while taken < count:
        if sem.acquire(False):
            taken += 1
        elif time.perf_counter() < deadline:
            os.sched_yield()
        else:
            break
    return taken


def _name_process(name: str) -> None:
    """Give this process ``name`` as its OS-visible name (Linux
    ``PR_SET_NAME``, at most 15 bytes), so ``pgrep epg-shard`` finds a
    pool from outside; elsewhere a no-op."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(15, name.encode()[:15], 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _build_context(shard: int, n: int, owned: tuple[int, int], arrays,
                   has_in: bool, whole_in: CSRGraph | None = None
                   ) -> ops.ShardContext:
    """Assemble one shard's op context from an arena's (or an inline
    dict's) arrays -- the single construction path for both modes.
    ``owned`` is the shard's ``(lo, hi)`` vertex range; ``whole_in`` is
    the whole in-CSR, which only a context in the engine's own process
    has."""
    return ops.ShardContext(
        shard, n, *owned,
        out_row_ptr=arrays[f"o{shard}_rp"],
        out_col_idx=arrays[f"o{shard}_ci"],
        in_row_ptr=arrays[f"i{shard}_rp"] if has_in else None,
        in_col_idx=arrays[f"i{shard}_ci"] if has_in else None,
        in_weights=arrays.get(f"i{shard}_w"),
        whole_in=whole_in,
        out_degrees=arrays["outdeg"] if has_in else None,
        vec=arrays["vec"], vec2=arrays["vec2"],
        visited=arrays["visited"], in_frontier=arrays["in_frontier"],
        frontier=arrays["frontier"], ctrl_i=arrays["ctrl_i"],
        ctrl_f=arrays["ctrl_f"], ring_ids=arrays[f"r{shard}_ids"],
        ring_val=arrays[f"r{shard}_val"], ring_hdr=arrays[f"r{shard}_hdr"])


def _worker_main(shard: int, n: int, owned: tuple[int, int], static_spec,
                 dyn_spec, go, done, has_in: bool, owner_pid: int,
                 spin_s: float) -> None:
    """Worker loop for shard ``shard`` (1..N-1; the parent computes
    shard 0): attach arenas, then serve supersteps until told to shut
    down.  Each round is one ``go`` token in, one ``done`` token out --
    plain semaphores, nothing a SIGKILLed sibling can leave locked (an
    ``mp.Barrier`` hides a condition lock that dies with its holder
    and deadlocks everyone else).  Op exceptions are already
    recorded in the ring header by :func:`~repro.shard.ops.run_op`; the
    loop swallows them so the worker always posts its token.  The wait
    for ``go`` polls for ``spin_s`` seconds (:data:`SPIN_S`, or 0)
    before it blocks.

    ``owner_pid`` is the engine owner's pid as *it* read it: a
    ``getppid()`` taken here would already be 1 if the owner died
    before this line ran, and the orphan would never notice."""
    # The suite's cell-pool workers set SIGTERM to SIG_IGN (so a
    # checkpointing parent can drain them); a shard worker forked from
    # one inherits that and would then survive the ``terminate()``
    # that ``multiprocessing.util._exit_function`` sends daemonic
    # children -- deadlocking the join that follows.  Restore the
    # default so this worker is always reapable.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _name_process(f"epg-shard-{shard}")
    static = ShmArena.attach(static_spec)
    dyn = ShmArena.attach(dyn_spec)
    arrays = dict(static.arrays)
    arrays.update(dyn.arrays)
    ctx = _build_context(shard, n, owned, arrays, has_in)
    try:
        while True:
            if not _spin_acquire(go, spin_s):
                while not go.acquire(True, ORPHAN_POLL_S):
                    if os.getppid() != owner_pid:
                        return  # orphaned: shutdown never comes
            op = int(ctx.ctrl_i[ops.CTRL_OP])
            if op == ops.OP_SHUTDOWN:
                break
            try:
                ops.run_op(ctx, op)
            except Exception:
                pass
            done.release()
    finally:
        del ctx, arrays
        static.close()
        dyn.close()


class ShardEngine:
    """Persistent sharded executor for one graph.

    A process-backed engine forks ``n_shards - 1`` workers, named
    ``epg-shard-1`` onwards, and computes shard 0 in the calling
    process, so a superstep has no more runnable tasks than shards.

    Parameters
    ----------
    out:
        The graph's out-CSR (push direction).
    inn:
        Optional in-CSR (pull direction), ``out.transposed()``.
        Required for bottom-up BFS and PageRank; ``None`` builds a
        push-only engine (Graph500).
    n_shards:
        Shard count; the partition is
        :func:`~repro.shard.partition.partition_graph`'s.
    inline:
        Force (``True``) or forbid (``False``) the in-process path;
        ``None`` auto-selects: inline when ``n_shards == 1`` or the
        current process cannot fork workers.
    """

    def __init__(self, out: CSRGraph, inn: CSRGraph | None = None, *,
                 n_shards: int | None = None,
                 step_timeout_s: float = DEFAULT_STEP_TIMEOUT_S,
                 inline: bool | None = None):
        self.n_shards = resolve_shards(n_shards)
        self.n = out.n_vertices
        self.has_in = inn is not None
        self.step_timeout_s = float(step_timeout_s)
        self.partition: ShardPartition = partition_graph(
            out, self.n_shards)
        if inline is None:
            inline = (self.n_shards == 1
                      or multiprocessing.current_process().daemon)
        self.inline = bool(inline)
        self._closed = False
        #: Exchange accounting for the comm cost model and the
        #: ``epg_shard_*`` metrics (one kernel's worth: ``begin_*``
        #: zeroes it).
        self.rounds = 0
        self.bytes_exchanged = 0
        #: Rounds served in this process: below :data:`_INLINE_ARCS`,
        #: and every relax round that pushes; ``rounds`` counts only
        #: the supersteps that crossed.
        self.local_rounds = 0

        #: Seconds either side of a superstep polls before it blocks
        #: (:data:`SPIN_S`): only when every shard can have a CPU.
        self._spin_s = (SPIN_S if _usable_cpus() >= self.n_shards
                        else 0.0)

        dyn = self._build_dynamic()
        self._static_arena = None
        self._dyn_arena = None
        self._workers: list = []
        # Shard 0 always runs here; the static arena holds only what
        # the workers read (their slices), so the parent never writes
        # a copy of its own.
        here = range(self.n_shards) if self.inline else range(1)
        arrays = self._build_static(out, inn, here)
        if not self.inline:
            self._static_arena = ShmArena.create(self._build_static(
                out, inn, range(1, self.n_shards)))
            self._dyn_arena = ShmArena.create(dyn)
            dyn = self._dyn_arena.arrays
        arrays.update(dyn)
        self._arrays = arrays
        #: The contexts this process computes: every shard inline,
        #: shard 0 beside workers serving shards 1..N-1.
        self._contexts = [
            _build_context(k, self.n, self.partition.owned(k), arrays,
                           self.has_in, whole_in=inn)
            for k in here]
        if not self.inline:
            ctx = _mp_context()
            #: One release per worker per superstep; per-worker so a
            #: token can never be stolen by a sibling.
            self._go = [ctx.Semaphore(0) for _ in range(1, self.n_shards)]
            #: One completion token per worker per superstep.
            self._done = ctx.Semaphore(0)
            try:
                for k, go in enumerate(self._go, start=1):
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(k, self.n, self.partition.owned(k),
                              self._static_arena.spec,
                              self._dyn_arena.spec, go, self._done,
                              self.has_in, os.getpid(), self._spin_s),
                        daemon=True,
                        name=f"epg-shard-{k}")
                    proc.start()
                    self._workers.append(proc)
            except Exception:
                self.close()
                raise
            # A multiprocessing finalizer, NOT plain atexit: forked
            # children exit through ``os._exit`` (atexit never runs
            # there), and ``util._exit_function`` joins live children
            # *before* plain-atexit handlers would fire in the parent.
            # Finalizers with priority >= 0 run first in both paths,
            # so the pool is always shut down before anything joins or
            # unmaps -- exitpriority orders us ahead of the arenas'
            # unlink guards.
            self._exit_guard = multiprocessing.util.Finalize(
                None, self.close, exitpriority=ENGINE_FINALIZE_PRIORITY)
        #: The serial step bodies over the whole graph, on the round
        #: state the shards read: what a round too small to cross runs.
        local = LocalSweeps(out, KernelScratch(self.n))
        local.visited = self._arrays["visited"]
        local.dist = self._arrays["vec"]
        self._local_sweeps = local

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_static(self, out: CSRGraph, inn: CSRGraph | None,
                      shards) -> dict[str, np.ndarray]:
        """The slices of ``shards`` plus the arrays every shard reads."""
        arrays: dict[str, np.ndarray] = {}
        for k in shards:
            sl = shard_out_slice(out, self.partition, k)
            arrays[f"o{k}_rp"] = sl.row_ptr
            arrays[f"o{k}_ci"] = sl.col_idx
            if inn is not None:
                # The owned rows of the in-CSR: views, which only the
                # static arena copies.
                isl = inn.row_block(*self.partition.owned(k))
                arrays[f"i{k}_rp"] = isl.row_ptr
                arrays[f"i{k}_ci"] = isl.col_idx
                if isl.weights is not None:
                    arrays[f"i{k}_w"] = isl.weights
        if inn is not None:
            # PageRank's per-vertex divisor: dangling vertices own no
            # arc; 1 only keeps 0/0 out of it.
            arrays["outdeg"] = np.maximum(
                out.out_degrees(), 1).astype(np.float64)
        return arrays

    def _build_dynamic(self) -> dict[str, np.ndarray]:
        n = self.n
        arrays: dict[str, np.ndarray] = {
            "ctrl_i": np.zeros(16, dtype=np.int64),
            "ctrl_f": np.zeros(8),
            "vec": np.zeros(n),
            "vec2": np.zeros(n),
            "visited": np.zeros(n, dtype=bool),
            "in_frontier": np.zeros(n, dtype=bool),
            "frontier": np.zeros(n + 1, dtype=np.int64),
        }
        for k in range(self.n_shards):
            arrays[f"r{k}_ids"] = np.zeros(n + 1, dtype=np.int64)
            arrays[f"r{k}_val"] = np.zeros(n + 1)
            arrays[f"r{k}_hdr"] = np.zeros(8, dtype=np.int64)
        return arrays

    # ------------------------------------------------------------------
    # Superstep protocol
    # ------------------------------------------------------------------
    def _superstep(self, op: int, frontier: np.ndarray | None = None,
                   mode: int = 0) -> list[tuple[np.ndarray, np.ndarray,
                                                int]]:
        """Run one op on every shard; return per-shard
        ``(ids, values, examined)`` ring contents, copied out of the
        arena so that none outlives :meth:`close` as a view of unmapped
        memory."""
        if self._closed:
            raise ShardError("engine is closed")
        a = self._arrays
        ctrl_i = a["ctrl_i"]
        k = 0
        if frontier is not None:
            k = frontier.size
            a["frontier"][:k] = frontier
        ctrl_i[ops.CTRL_FRONT_LEN] = k
        ctrl_i[ops.CTRL_MODE] = mode
        ctrl_i[ops.CTRL_OP] = op

        if self.inline:
            self._run_contexts(op)
        else:
            for sem in self._go:
                sem.release()
            try:
                self._run_contexts(op)
                self._collect_tokens()
            except BaseException:
                # Tokens are outstanding: a later round would collect
                # this one's, so the engine cannot be reused.
                self.close()
                raise

        results = []
        exchanged = k * 8 * self.n_shards  # broadcast frontier
        for s in range(self.n_shards):
            hdr = a[f"r{s}_hdr"]
            if hdr[ops.HDR_ERROR]:
                # The shard's process is fine (a worker posted its
                # token); only the op failed.  Keep the pool alive --
                # the next kernel reinitializes all round state, and
                # run_op clears the flag on entry.
                raise ShardError(f"shard {s} op {op} failed")
            count = int(hdr[ops.HDR_COUNT])
            results.append((a[f"r{s}_ids"][:count].copy(),
                            a[f"r{s}_val"][:count].copy(),
                            int(hdr[ops.HDR_EXAMINED])))
            exchanged += count * MESSAGE_BYTES
        self.rounds += 1
        self.bytes_exchanged += exchanged
        return results

    def _run_contexts(self, op: int) -> None:
        """Run ``op`` on the shards this process computes: all of them
        inline, shard 0 beside the workers.  A failure is already in
        the shard's ring header, raised once the round is collected."""
        for ctx in self._contexts:
            try:
                ops.run_op(ctx, op)
            except Exception:
                pass

    def _collect_tokens(self) -> None:
        """Wait for one ``done`` token per worker: poll for
        :data:`SPIN_S` when the engine spins, then block."""
        pending = len(self._workers)
        pending -= _spin_acquire(self._done, self._spin_s, pending)
        deadline = time.monotonic() + self.step_timeout_s
        while pending:
            # Short slices so worker deaths surface promptly; a plain
            # semaphore acquire cannot deadlock on a lock a SIGKILLed
            # worker took with it.
            if self._done.acquire(True, 0.05):
                pending -= 1
                continue
            dead = [p.name for p in self._workers if not p.is_alive()]
            if dead or time.monotonic() > deadline:
                self.close()
                raise ShardError(
                    "sharded superstep stalled"
                    + (f" (dead workers: {', '.join(dead)})" if dead else
                       f" (timeout after {self.step_timeout_s}s)"))

    @staticmethod
    def merge(rings) -> tuple[np.ndarray, np.ndarray]:
        """The round's ``(ids, values)``: the rings concatenated in
        shard order.  A ring holds sorted ids of its shard's own range,
        and each id's value is already its minimum, so the ids come out
        strictly ascending and the values need no further reduction."""
        return (np.concatenate([r[0] for r in rings]),
                np.concatenate([r[1] for r in rings]))

    @property
    def _local(self) -> LocalSweeps:
        if self._closed:
            raise ShardError("engine is closed")
        return self._local_sweeps

    def _stays_local(self, arcs: int, crosses: bool = True) -> bool:
        """Whether a round over ``arcs`` arcs is served here: it is too
        small to be worth a superstep (see :data:`_INLINE_ARCS`) or it
        does not ``cross`` at all."""
        if crosses and arcs >= _INLINE_ARCS:
            return False
        self.local_rounds += 1
        return True

    # ------------------------------------------------------------------
    # Kernel-facing supersteps (repro.graph.sweeps.SweepExecutor)
    # ------------------------------------------------------------------
    def _begin(self, state: str) -> np.ndarray:
        """A kernel starts: its exchange accounting starts from zero."""
        self.rounds = 0
        self.bytes_exchanged = 0
        self.local_rounds = 0
        return self._arrays[state]

    def begin_bfs(self, root: int) -> None:
        visited = self._begin("visited")
        visited[:] = False
        visited[root] = True

    def _claim(self, rings, parent: np.ndarray) -> tuple[np.ndarray, int]:
        """The parent's write after a BFS level: merge the rings, then
        record and mark the claims."""
        new_v, parents = self.merge(rings)
        parent[new_v] = parents.astype(np.int64)  # ring values are float64
        self._arrays["visited"][new_v] = True
        return new_v, sum(r[2] for r in rings)

    def top_down(self, frontier: np.ndarray, parent: np.ndarray
                 ) -> tuple[np.ndarray, int]:
        """The global minimum frontier source per still-unvisited
        target -- exactly the winner the serial ``LocalSweeps.top_down``
        claims -- in sorted target order: each shard runs
        ``first_parent_candidates`` over the arcs into its own range."""
        local = self._local
        if self._stays_local(out_arc_count(local.out.row_ptr, frontier)):
            return local.top_down(frontier, parent)
        rings = self._superstep(ops.OP_TD, frontier=frontier)
        return self._claim(rings, parent)

    def bottom_up(self, frontier: np.ndarray, parent: np.ndarray
                  ) -> tuple[np.ndarray, int]:
        """Each shard scans the *complete* in-rows of its own range,
        making its early-exit examined counts sum to the serial
        count."""
        local = self._local
        if self._stays_local(out_arc_count(local.out.transposed().row_ptr,
                                           np.flatnonzero(~local.visited))):
            return local.bottom_up(frontier, parent)
        f = self._arrays["in_frontier"]
        f[:] = False
        f[frontier] = True
        rings = self._superstep(ops.OP_BU)
        return self._claim(rings, parent)

    def begin_sssp(self, root: int, delta: float) -> np.ndarray:
        dist = self._begin("vec")
        self._arrays["ctrl_f"][ops.CTRL_DELTA] = delta
        self._local.set_delta(delta)
        dist[:] = np.inf
        dist[root] = 0.0
        return dist

    def relax(self, members: np.ndarray, mode: int
              ) -> tuple[np.ndarray, int]:
        """Only a round that pulls crosses -- ``frontier.pulls`` over the
        whole graph's light or heavy part, the serial round's direction
        -- and only on an engine with in-arcs: each shard takes its
        owned vertices' whole-row minima against the pre-round
        distances, and the parent applies them between barriers and
        stays the single writer of the vector.  A pushed round runs
        here: split over shards, each would pay most of the whole
        push's per-call cost (``docs/sharding.md``).  Either way the
        round is priced as :meth:`LocalSweeps.relax` prices it.  Each
        of the two arc counts is taken once per round."""
        local = self._local
        part = local.out_parts[mode]
        arcs = out_arc_count(part.row_ptr, members)
        examined = out_arc_count(local.out.row_ptr, members)
        if self._stays_local(examined, self.has_in and pulls(part, arcs)):
            return local.relax(members, mode, examined, arcs)
        rings = self._superstep(ops.OP_RELAX, frontier=members,
                                mode=mode)
        ids, dists = self.merge(rings)
        # A ring holds only the ids whose minimum beats the distance.
        self._arrays["vec"][ids] = dists
        return ids, examined

    def begin_pagerank(self, rank: np.ndarray) -> np.ndarray:
        shared = self._begin("vec")
        shared[:] = rank
        return shared

    def pagerank_sweep(self, rank: np.ndarray, dangling_mass: float,
                       base: float, damping: float) -> np.ndarray:
        """Each shard writes its own range of the new rank vector into
        whichever of the two shared buffers ``rank`` is not (the ranges
        are disjoint, so this *is* the allreduce)."""
        a = self._arrays
        flip = rank is a["vec2"]
        a["ctrl_i"][ops.CTRL_FLIP] = flip
        a["ctrl_f"][ops.CTRL_DANGLING] = dangling_mass
        a["ctrl_f"][ops.CTRL_BASE] = base
        a["ctrl_f"][ops.CTRL_DAMPING] = damping
        self._superstep(ops.OP_PR)
        # Each rank entry crosses once: the owner writes it, the parent
        # reads it for the residual and the next sweep reads it back.
        self.bytes_exchanged += self.n * 8
        return a["vec" if flip else "vec2"]

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran, or a dead worker forced it."""
        return self._closed

    def close(self) -> None:
        """Shut workers down and unlink both arenas (idempotent; also
        runs as an exit finalizer when the owner never calls it)."""
        if self._closed:
            return
        self._closed = True
        guard = self.__dict__.get("_exit_guard")
        if guard is not None:
            guard.cancel()
        try:
            if self._workers:
                try:
                    if (self._dyn_arena is not None
                            and not self._dyn_arena.closed):
                        self._arrays["ctrl_i"][ops.CTRL_OP] = \
                            ops.OP_SHUTDOWN
                        for sem in self._go:
                            sem.release()
                except Exception:
                    pass
                for proc in self._workers:
                    proc.join(timeout=2.0)
                    if proc.is_alive():
                        proc.terminate()
                        proc.join(timeout=2.0)
        finally:
            self._workers = []
            self._contexts = []
            self._arrays = {}
            self._local_sweeps = None  # its round state is unmapped next
            if self._static_arena is not None:
                self._static_arena.destroy()
            if self._dyn_arena is not None:
                self._dyn_arena.destroy()

    def __enter__(self) -> "ShardEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort backstop
        try:
            self.close()
        except Exception:
            pass
