"""The executing side of the cell scheduler: one :class:`CellWorker`.

A :class:`CellWorker` runs cell tasks and holds what consecutive tasks
share: a :class:`~repro.observability.tracer.Tracer`, one
:class:`~repro.resilience.supervisor.CellSupervisor` per experiment
configuration, and the resident Graphalytics harnesses.  The
supervisors hold the worker's :class:`~repro.core.runner.Runner`, whose
loaded-graph cache means a worker deserializes each (system, threads)
CSR once, not once per cell.  A pool worker process owns one for its
lifetime (:func:`init_worker`), capturing on a tracer with no log of
its own (:meth:`~repro.observability.tracer.Tracer.capture_only`); a
one-job :class:`~repro.parallel.CellPool` makes one per sweep *its
executor* (:meth:`CellWorker.submit`), capturing on the experiment's
tracer -- the only difference between the two.  Either way a cell's
events are held in memory and written once, by the parent.

When the run names a ``--cache-dir``, the parent prewarms every graph
structure into the on-disk artifact cache before a multi-process
fan-out, and each worker's Runner maps the cached ``.npy`` arrays
read-only (``np.load(mmap_mode="r")``): the OS page cache backs one
physical copy of each graph shared zero-copy across all workers,
instead of every worker parsing and building its own (see
``docs/cache.md``).

Tasks return plain picklable values.  A cell task returns the
:class:`~repro.resilience.supervisor.CellOutcome` together with the
cell's captured trace-event group; the parent splices the group onto
the global timeline in canonical order
(:meth:`~repro.observability.tracer.Tracer.ingest_cell_events`).
Everything a worker computes is a pure function of the experiment
seed -- kernels, jitter, backoff, injected faults -- so which worker
runs a cell never changes its result.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

from repro.observability import Tracer

__all__ = ["CellWorker", "init_worker", "run_cell_task",
           "run_graphalytics_task"]


class CellWorker:
    """Runs cell tasks; owns the state consecutive tasks share."""

    def __init__(self, tracer=None):
        self.tracer = tracer if tracer is not None else Tracer()
        self._supervisors: dict = {}
        self._harnesses: dict = {}

    def _supervisor(self, config, dataset):
        """The supervised Runner for ``config`` -- keyed on all of it
        (directory, digest inputs, machine), so experiments sharing a
        pool or a directory never run on each other's Runner."""
        from repro.core.runner import Runner
        from repro.resilience import (
            CellSupervisor,
            FaultInjector,
            RetryPolicy,
        )

        sup = self._supervisors.get(config)
        if sup is None:
            runner = Runner(config, dataset, tracer=self.tracer)
            injector = (FaultInjector(config.seed, config.fault_spec)
                        if config.fault_spec else None)
            sup = self._supervisors[config] = CellSupervisor(
                runner, RetryPolicy.from_config(config), injector=injector)
        return sup

    def run_cell(self, config, dataset, system: str, algorithm: str,
                 n_threads: int):
        """Run one supervised cell; return (outcome, captured events).
        Stamps are cell-local and shifted once at ingest: bit-identical
        whoever ran the cell; an interrupted cell's events never land."""
        self.tracer.begin_capture()
        try:
            outcome = self._supervisor(config, dataset).run_cell(
                system, algorithm, n_threads)
        finally:
            events = self.tracer.take_capture()
        return outcome, events

    def run_graphalytics(self, harness, platform: str, algorithm: str,
                         dataset):
        """Run one Graphalytics cell on the resident harness with
        ``harness``'s parameters -- the first one seen (in process the
        caller's own), so loaded graphs are reused across cells."""
        key = (harness.machine, harness.n_threads, harness.seed,
               harness.time_limit_s)
        resident = self._harnesses.setdefault(key, harness)
        return resident.run_cell(platform, algorithm, dataset)

    def submit(self, task, *args):
        """The one-job executor: a future that runs ``task`` on this
        worker when ``result()`` is called (and raises there)."""
        return SimpleNamespace(result=partial(task, *args, worker=self))

    def close(self) -> None:
        """Drop the shared state, shutting down what it holds open."""
        for supervisor in self._supervisors.values():
            supervisor.runner.close()
        self._supervisors.clear()


#: This process's own worker; :func:`init_worker` replaces it in each
#: pool worker process.
_WORKER = CellWorker()


def init_worker() -> None:
    """Pool initializer: this process's worker, capturing in memory.

    Every cell's events travel back to the parent inside its task
    result, which splices them onto the one log; an untraced parent
    drops them there.
    """
    import signal

    global _WORKER
    # Termination signals belong to the parent: it drains, checkpoints
    # completed cells, and exits 130.  A worker that died to a
    # group-delivered SIGTERM/SIGINT mid-cell would instead tear a
    # result the commit sweep was about to persist.
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass

    _WORKER = CellWorker(Tracer.capture_only())


def run_cell_task(config, dataset, system: str, algorithm: str,
                  n_threads: int, *, worker: CellWorker | None = None):
    """:meth:`CellWorker.run_cell` on ``worker`` (default: this process's)."""
    return (worker or _WORKER).run_cell(
        config, dataset, system, algorithm, n_threads)


def run_graphalytics_task(harness, platform: str, algorithm: str,
                          dataset, *, worker: CellWorker | None = None):
    """:meth:`CellWorker.run_graphalytics`, likewise."""
    return (worker or _WORKER).run_graphalytics(
        harness, platform, algorithm, dataset)
