"""The daemon's worker pool, with a watchdog for wedged workers.

Kernels run on a fixed pool of worker threads.  A worker that exceeds
the wedge deadline (an injected hang, or a genuinely stuck kernel) is
*quarantined*: the watchdog flips the worker's cooperative ``abandoned``
flag, fails the task's promises so clients get their 503 immediately,
and spawns a replacement thread so pool capacity is restored.  The
quarantined thread exits at its next cooperative check -- the serving
analogue of the batch supervisor killing a cell at its deadline.

The pool also answers the one question the batcher needs to decide
whether lingering can pay: is a worker idle right now?
(:meth:`WorkerPool.has_idle_worker`, and the ``on_idle`` hook fired
each time capacity comes back.)
"""

from __future__ import annotations

import queue
import threading
import time

from repro.logging_util import get_logger

__all__ = ["Promise", "WorkerCtx", "WorkerPool"]

_STOP = object()


class Promise:
    """A one-shot, first-writer-wins result slot."""

    __slots__ = ("_event", "_outcome")

    def __init__(self):
        self._event = threading.Event()
        self._outcome = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def fulfill(self, result) -> bool:
        if self._event.is_set():
            return False
        self._outcome = ("ok", result)
        self._event.set()
        return True

    def fail(self, kind: str, message: str) -> bool:
        if self._event.is_set():
            return False
        self._outcome = ("error", (kind, message))
        self._event.set()
        return True

    def wait(self, timeout_s: float | None):
        """('ok', result) | ('error', (kind, msg)) | None on timeout."""
        if not self._event.wait(timeout_s):
            return None
        return self._outcome


class WorkerCtx:
    """Per-task context a quarantined worker observes cooperatively."""

    __slots__ = ("abandoned",)

    def __init__(self):
        self.abandoned = threading.Event()


class _Worker:
    __slots__ = ("thread", "ctx", "busy_since", "task")

    def __init__(self):
        self.thread: threading.Thread | None = None
        self.ctx: WorkerCtx | None = None
        self.busy_since: float | None = None
        self.task = None


class WorkerPool:
    """Fixed-size thread pool + watchdog quarantine."""

    def __init__(self, n_workers: int, *, wedge_timeout_s: float,
                 telemetry=None, clock=time.monotonic):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.wedge_timeout_s = float(wedge_timeout_s)
        self.telemetry = telemetry
        self._clock = clock
        self._queue: queue.Queue = queue.Queue()
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
        #: Tasks queued or running on a live (non-quarantined) worker.
        self._outstanding = 0
        #: Called with no arguments, outside every pool lock, whenever
        #: a worker finishes a task or a replacement is spawned.  One
        #: subscriber: the batcher that submits to this pool.
        self.on_idle = None
        self._stopping = False
        self._watchdog: threading.Thread | None = None
        self.quarantined = 0
        self._log = get_logger("repro.service")

    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            for _ in range(self.n_workers):
                self._spawn_locked()
        self._watchdog = threading.Thread(
            target=self._watch, name="epg-serve-watchdog", daemon=True)
        self._watchdog.start()

    def _spawn_locked(self) -> _Worker:
        worker = _Worker()
        worker.thread = threading.Thread(
            target=self._run, args=(worker,), name="epg-serve-worker",
            daemon=True)
        self._workers.append(worker)
        worker.thread.start()
        return worker

    def submit(self, task) -> None:
        """``task`` needs ``run(ctx)`` and ``abandon(reason)``."""
        with self._lock:
            self._outstanding += 1
        self._queue.put(task)

    def has_idle_worker(self) -> bool:
        """True when a task submitted now would start at once instead
        of queueing behind another."""
        with self._lock:
            return self._outstanding < self.n_workers

    def _notify_idle(self) -> None:
        if self.on_idle is not None:
            self.on_idle()

    # ------------------------------------------------------------------
    def _run(self, worker: _Worker) -> None:
        while True:
            task = self._queue.get()
            if task is _STOP:
                return
            ctx = WorkerCtx()
            with self._lock:
                worker.ctx = ctx
                worker.task = task
                worker.busy_since = self._clock()
            try:
                task.run(ctx)
            except Exception:  # the pool must survive anything
                self._log.exception("worker task failed")
                task.abandon("internal error")
            finally:
                with self._lock:
                    worker.ctx = None
                    worker.task = None
                    worker.busy_since = None
                    quarantined = ctx.abandoned.is_set()
                    if not quarantined:
                        self._outstanding -= 1
            if quarantined:
                # A replacement already took this slot (and its share
                # of ``_outstanding``).
                return
            self._notify_idle()

    def _watch(self) -> None:
        interval = max(min(self.wedge_timeout_s / 4, 0.25), 0.01)
        while not self._stopping:
            time.sleep(interval)
            now = self._clock()
            replaced = False
            with self._lock:
                for worker in list(self._workers):
                    if worker.busy_since is None \
                            or worker.ctx is None \
                            or worker.ctx.abandoned.is_set():
                        continue
                    if now - worker.busy_since < self.wedge_timeout_s:
                        continue
                    worker.ctx.abandoned.set()
                    task = worker.task
                    self._workers.remove(worker)
                    self.quarantined += 1
                    self._spawn_locked()
                    self._outstanding -= 1
                    replaced = True
                    self._log.warning(
                        "watchdog: worker wedged %.1fs; quarantined "
                        "and replaced", now - worker.busy_since)
                    if self.telemetry is not None:
                        self.telemetry.counter(
                            "epg_serve_worker_quarantines_total")
                    if task is not None:
                        # Outside nothing: fail fast so the waiting
                        # request gets its 503 now, not at its timeout.
                        task.abandon("worker wedged")
            if replaced:
                self._notify_idle()

    # ------------------------------------------------------------------
    def stop(self, timeout_s: float = 5.0) -> None:
        self._stopping = True
        with self._lock:
            workers = list(self._workers)
        for _ in workers:
            self._queue.put(_STOP)
        deadline = self._clock() + timeout_s
        for worker in workers:
            worker.thread.join(max(deadline - self._clock(), 0.05))
        if self._watchdog is not None:
            self._watchdog.join(timeout_s)
