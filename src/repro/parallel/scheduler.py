"""Parent-process side: job resolution and the cell pool.

:class:`CellPool` hands cell tasks to one of two executors, chosen by
its job count and nothing else: a lazily created
:class:`~concurrent.futures.ProcessPoolExecutor`, or (one job) a
:class:`~repro.parallel.worker.CellWorker` in the calling process,
whose futures run their task when ``result()`` is called.  The scheduling discipline lives
in the callers (:meth:`repro.core.experiment.Experiment.run` and
:meth:`repro.graphalytics.harness.GraphalyticsHarness.run_matrix`) and
is the same for both: submit every outstanding cell, then *commit
results strictly in canonical cell order*, blocking on each future in
turn.  Completion order is irrelevant -- checkpoint records, trace
splices, and the failures ledger are applied in the order the cells
are listed, which is the deterministic-merge invariant ``--jobs N``
rests on (REPORT.md is byte-identical at every job count).  Laziness
keeps a one-job run serial where it matters: cell *k* is in the
checkpoint before cell *k+1* starts.

Fork discipline: workers inherit the parent's open trace file handle,
and a worker's exit-time flush would duplicate any bytes still
buffered in it at fork time.  :meth:`CellPool.sweep` therefore flushes
the parent tracer before a submission batch; the pool spawns workers
only during submission, never during the commit sweep.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, closing, contextmanager

from repro.errors import ConfigError
from repro.parallel.worker import (
    CellWorker,
    init_worker,
    run_cell_task,
    run_graphalytics_task,
)

__all__ = ["CellPool", "resolve_jobs"]


def resolve_jobs(jobs: int | None) -> int:
    """``None`` means "use every core"; otherwise validate the count."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


def _mp_context():
    # Fork is preferred where available (Linux): workers skip module
    # re-import and dataset arguments share pages until written.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class CellPool:
    """The executor for a suite's cells, shared across its experiments.

    Pool workers write no files of their own: each cell's trace events
    come back in its task result (see :mod:`repro.parallel.worker`).
    """

    def __init__(self, jobs: int):
        self.jobs = resolve_jobs(jobs)
        self._processes: ProcessPoolExecutor | None = None
        #: The executor of the sweep in progress (see :meth:`sweep`).
        self._executor = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._processes is None:
            self._processes = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=_mp_context(),
                initializer=init_worker)
        return self._processes

    # ------------------------------------------------------------------
    @contextmanager
    def sweep(self, tracer=None, prewarm=None):
        """Scope one submit-then-commit sweep (submissions are valid
        only inside).  One job: a fresh in-process :class:`CellWorker` on
        ``tracer``, closed on exit, so nothing a sweep loaded outlives
        it.  More: the pool's processes, after ``prewarm()`` (shared
        state the parent materializes once; in process it would only
        be a second load) and a fork-safety flush of ``tracer``."""
        with ExitStack() as stack:
            if self.jobs == 1:
                self._executor = stack.enter_context(
                    closing(CellWorker(tracer)))
            else:
                if prewarm is not None:
                    prewarm()
                if tracer is not None:
                    tracer.flush()
                self._executor = self._ensure()
            stack.callback(setattr, self, "_executor", None)
            yield self

    def submit_cell(self, config, dataset, system: str, algorithm: str,
                    n_threads: int):
        return self._executor.submit(run_cell_task, config, dataset,
                                     system, algorithm, n_threads)

    def submit_graphalytics(self, harness, platform: str, algorithm: str,
                            dataset):
        return self._executor.submit(run_graphalytics_task, harness,
                                     platform, algorithm, dataset)

    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        if self._processes is not None:
            executor, self._processes = self._processes, None
            try:
                executor.shutdown(wait=wait, cancel_futures=True)
            except KeyboardInterrupt:
                # A second interrupt while draining: stop waiting for
                # in-flight cells but still release the pool.
                executor.shutdown(wait=False, cancel_futures=True)
                raise

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
