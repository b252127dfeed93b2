"""Same-graph query coalescing: many queries, one kernel sweep.

The Graph500 never times one BFS: it sweeps a batch of roots over one
loaded graph.  The daemon borrows the idiom for throughput: queries
that agree on (graph, system, algorithm, n_threads) and arrive while
every worker is busy are executed as a single
:meth:`~repro.systems.base.GraphSystem.run_many` sweep on one worker,
with duplicate roots sharing a single execution.

A group lingers only while it could not run anyway: a job submitted
while a worker is idle is flushed at once, a waiting group is flushed
the moment a worker frees, and the linger window bounds how long a
group waits behind busy workers before it joins the pool's queue.

Chaos discipline: injected faults are attached per *query*, and a
fault may never poison co-batched innocents.  Crash faults fail their
query before the sweep; hang faults are marked solo at submission (a
unique batch key) so only the wedged worker is lost; corrupt faults
damage a per-query copy of the result, which the cheap validators then
reject.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.graph.frontier import sorted_unique
from repro.logging_util import get_logger
from repro.service.workers import Promise
from repro.systems.base import ROOTED_ALGORITHMS

__all__ = ["BatchingExecutor", "Job", "summarize", "validate_output"]

#: Longest an injected hang can wedge a worker before giving up on its
#: own (the watchdog normally quarantines it much earlier).
HANG_CAP_S = 60.0


@dataclass
class Job:
    """One admitted query, on its way to a kernel sweep."""

    graph: str
    system: str
    algorithm: str
    n_threads: int
    root: int | None = None
    fault: object | None = None
    ticket: object | None = None
    promise: Promise = field(default_factory=Promise)
    solo: bool = False

    def key(self) -> tuple:
        return (self.graph, self.system, self.algorithm, self.n_threads)


def validate_output(algorithm: str, output: dict,
                    root: int | None) -> str | None:
    """Cheap result sanity check; returns a reason string on failure.

    These are the O(1)/O(n) invariants a corrupted result cannot fake:
    the serving layer's version of Graph500's "a fast system cannot win
    by returning garbage"."""
    try:
        if algorithm == "bfs":
            parent = output["parent"]
            if int(parent[int(root)]) != int(root):
                return "bfs parent[root] != root"
        elif algorithm == "sssp":
            dist = output["dist"]
            if not np.isfinite(dist[int(root)]) \
                    or float(dist[int(root)]) != 0.0:
                return "sssp dist[root] != 0"
        else:
            for name, arr in output.items():
                if np.issubdtype(arr.dtype, np.floating) \
                        and not np.isfinite(arr).all():
                    return f"non-finite values in {name!r}"
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output ({type(exc).__name__})"
    return None


def _corrupt_output(algorithm: str, output: dict,
                    root: int | None) -> dict:
    """A damaged *copy* of one query's result (never the shared one)."""
    damaged = {k: np.array(v, copy=True) for k, v in output.items()}
    if algorithm == "bfs" and "parent" in damaged:
        damaged["parent"][int(root)] = -7
    elif algorithm == "sssp" and "dist" in damaged:
        damaged["dist"][int(root)] = np.inf
    else:
        name = next(iter(damaged))
        arr = damaged[name]
        if np.issubdtype(arr.dtype, np.floating):
            arr[0] = np.nan
        else:
            damaged["__corrupt__"] = np.zeros(0)
    return damaged


def summarize(result, n_vertices: int) -> dict:
    """The small JSON a query response carries instead of the arrays."""
    out: dict = {"system": result.system, "algorithm": result.algorithm,
                 "kernel_s": result.time_s,
                 "n_vertices": int(n_vertices)}
    if result.root is not None:
        out["root"] = int(result.root)
    if result.iterations is not None:
        out["iterations"] = int(result.iterations)
    output = result.output
    if result.algorithm == "bfs" and "parent" in output:
        out["reached"] = int((output["parent"] >= 0).sum())
    elif result.algorithm == "sssp" and "dist" in output:
        out["reached"] = int(np.isfinite(output["dist"]).sum())
    elif "labels" in output:
        labels = output["labels"]
        out["components"] = int(sorted_unique(labels).size)
    for name, value in sorted(result.counters.items()):
        out.setdefault(name, float(value))
    return out


class _Batch:
    """One flushed group; runs on a single worker slot."""

    def __init__(self, executor: "BatchingExecutor", jobs: list[Job]):
        self.executor = executor
        self.jobs = jobs

    # -- WorkerPool task protocol --------------------------------------
    def run(self, ctx) -> None:
        self.executor._execute(self.jobs, ctx)

    def abandon(self, reason: str) -> None:
        for job in self.jobs:
            job.promise.fail("timeout", reason)


class BatchingExecutor:
    """Groups submitted jobs by key; flushes a group when a worker is
    idle, it is full, or it has waited the linger window out."""

    def __init__(self, pool, manager, telemetry=None, *,
                 window_s: float = 0.01, max_batch: int = 32,
                 clock=time.monotonic):
        self.pool = pool
        self.manager = manager
        self.telemetry = telemetry
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self._clock = clock
        self._pending: dict[tuple, list[Job]] = {}
        self._deadlines: dict[tuple, float] = {}
        self._cond = threading.Condition()
        self._accepting = True
        self._flusher: threading.Thread | None = None
        self._solo_ids = itertools.count()
        self._log = get_logger("repro.service")
        pool.on_idle = self._flush_while_idle

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._flusher = threading.Thread(
            target=self._flush_loop, name="epg-serve-batcher",
            daemon=True)
        self._flusher.start()

    def submit(self, job: Job) -> bool:
        """Queue one job; False when the executor is draining."""
        key = job.key()
        if job.solo:
            key = key + ("solo", next(self._solo_ids))
        with self._cond:
            if not self._accepting:
                return False
            group = self._pending.setdefault(key, [])
            group.append(job)
            if key not in self._deadlines:
                self._deadlines[key] = self._clock() + self.window_s
            if len(group) >= self.max_batch or job.solo \
                    or self.pool.has_idle_worker():
                self._flush_locked(key)
            self._cond.notify()
        return True

    def _flush_while_idle(self) -> None:
        """Pool hook: capacity came back, so the longest-waiting groups
        stop lingering."""
        with self._cond:
            while self._deadlines and self.pool.has_idle_worker():
                self._flush_locked(
                    min(self._deadlines, key=self._deadlines.get))

    # ------------------------------------------------------------------
    def _flush_locked(self, key: tuple) -> None:
        jobs = self._pending.pop(key, [])
        self._deadlines.pop(key, None)
        if jobs:
            self.pool.submit(_Batch(self, jobs))

    def _flush_loop(self) -> None:
        while True:
            with self._cond:
                if not self._accepting and not self._pending:
                    return
                now = self._clock()
                due = [k for k, d in self._deadlines.items() if d <= now]
                for key in due:
                    self._flush_locked(key)
                timeout = self.window_s
                if self._deadlines:
                    timeout = max(
                        min(self._deadlines.values()) - now, 0.001)
                self._cond.wait(timeout)

    def stop(self) -> None:
        """Stop accepting; flush everything already queued."""
        with self._cond:
            self._accepting = False
            for key in list(self._pending):
                self._flush_locked(key)
            self._cond.notify_all()
        if self._flusher is not None:
            self._flusher.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Batch execution (runs on a worker thread)
    # ------------------------------------------------------------------
    def _execute(self, jobs: list[Job], ctx) -> None:
        live = [j for j in jobs if not j.promise.done]
        for job in live:
            if job.ticket is not None:
                job.ticket.start()
        if not live:
            return
        if self.telemetry is not None:
            self.telemetry.observe("epg_serve_batch_size", len(live),
                                   algorithm=live[0].algorithm)
        runnable: list[Job] = []
        for job in live:
            kind = getattr(job.fault, "kind", None)
            if kind == "crash":
                self._count_fault("crash")
                job.promise.fail("fault", "injected crash")
            elif kind == "hang":
                self._count_fault("hang")
                self._wedge(ctx)
                job.promise.fail("fault", "injected hang")
            else:
                runnable.append(job)
        if not runnable or ctx.abandoned.is_set():
            return
        first = runnable[0]
        rooted = first.algorithm in ROOTED_ALGORITHMS
        try:
            with self.manager.lease(first.graph, first.system,
                                    first.n_threads) as (system, loaded):
                if ctx.abandoned.is_set():
                    # Quarantined while waiting for the structure's
                    # previous sweep: the jobs have their 503 already.
                    return
                roots = (tuple(int(j.root) for j in runnable)
                         if rooted else ())
                results = system.run_many(loaded, first.algorithm,
                                          roots)
                if not rooted:
                    # run_many executes a rootless kernel once and
                    # returns a single entry; alias it to every
                    # co-batched job so none is left hanging.
                    results = list(results) * len(runnable)
                for job, result in zip(runnable, results):
                    self._finish(job, result, loaded.n_vertices)
        except ReproError as exc:
            for job in runnable:
                job.promise.fail(
                    "error", f"{type(exc).__name__}: {exc}")

    def _finish(self, job: Job, result, n_vertices: int) -> None:
        output = result.output
        if getattr(job.fault, "kind", None) == "corrupt":
            self._count_fault("corrupt")
            output = _corrupt_output(job.algorithm, output, job.root)
        reason = validate_output(job.algorithm, output, job.root)
        if reason is not None:
            job.promise.fail("invalid", f"result failed validation: "
                                        f"{reason}")
            return
        job.promise.fulfill(summarize(result, n_vertices))

    def _wedge(self, ctx) -> None:
        """Simulate a wedged worker until the watchdog abandons us."""
        deadline = self._clock() + HANG_CAP_S
        while not ctx.abandoned.is_set() and self._clock() < deadline:
            time.sleep(0.02)

    def _count_fault(self, kind: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter("epg_serve_faults_total", kind=kind)
