"""Execution of independent suite cells, in process or across processes.

The paper's evaluation grid is embarrassingly parallel: every
(system, algorithm, threads) cell is seeded independently, so the
harness can fan cells out to a pool of worker processes and still
produce the exact report a serial run would.  :class:`CellPool` is the
parent-side scheduler (``epg reproduce --jobs N``): one
submit-then-commit sweep whose executor is a process pool, or -- at
one job -- the calling process itself.  Either way a
:class:`~repro.parallel.worker.CellWorker` runs the full
retry/quarantine supervision per cell and hands back each cell's
outcome plus its captured trace-event group for a deterministic,
canonical-order merge (see :mod:`repro.parallel.scheduler` and
``docs/parallel.md`` for the invariant).
"""

from repro.parallel.scheduler import CellPool, resolve_jobs
from repro.parallel.worker import run_cell_task, run_graphalytics_task

__all__ = ["CellPool", "resolve_jobs", "run_cell_task",
           "run_graphalytics_task"]
