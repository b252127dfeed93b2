"""Per-cell supervision: attempts, backoff, quarantine.

:class:`CellSupervisor` wraps each Runner cell the way the paper's
shell wrapper wraps each native binary: it launches the attempt,
applies any injected fault, catches *framework* failures
(:class:`~repro.errors.ReproError` -- never programming errors), sleeps
a jittered exponential backoff on the simulated harness clock, and
after the retry budget is exhausted records a quarantine instead of
raising.  One bad cell can therefore never discard the rest of a
suite, exactly like one PowerGraph-without-BFS hole never discarded
the paper's evaluation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CellTimeoutError, ReproError
from repro.logging_util import get_logger
from repro.machine.clock import SimulatedClock
from repro.machine.variance import VarianceModel
from repro.observability import Tracer
from repro.resilience.faults import FaultInjector, InjectedCrashError
from repro.resilience.retry import AttemptRecord, RetryPolicy

__all__ = ["CellOutcome", "CellSupervisor", "cell_id",
           "request_drain"]

#: Process-wide drain flag: set when the process has been asked to shut
#: down gracefully (SIGTERM, service drain).  A draining supervisor
#: stops *retrying* -- the in-flight attempt finishes, but a failure
#: quarantines immediately instead of burning backoff time the process
#: no longer has.
_DRAIN = threading.Event()


def request_drain() -> None:
    """Ask every supervisor in this process to stop scheduling retries."""
    _DRAIN.set()


def cell_id(system: str, algorithm: str, n_threads: int) -> str:
    return f"{system}/{algorithm}/t{n_threads}"


@dataclass(frozen=True)
class CellOutcome:
    """Final state of one (system, algorithm, threads) cell."""

    cell: str
    #: "completed" | "unsupported" | "quarantined"
    status: str
    #: Log path relative to the experiment dir (completed cells only).
    log: str | None
    attempts: tuple[AttemptRecord, ...]

    @property
    def failed_attempts(self) -> tuple[AttemptRecord, ...]:
        return tuple(a for a in self.attempts if a.status != "ok")

    def to_dict(self) -> dict:
        return {"cell": self.cell, "status": self.status, "log": self.log,
                "attempts": [a.to_dict() for a in self.attempts]}

    @staticmethod
    def from_dict(d: dict) -> "CellOutcome":
        return CellOutcome(
            cell=d["cell"], status=d["status"], log=d.get("log"),
            attempts=tuple(AttemptRecord.from_dict(a)
                           for a in d.get("attempts", ())))


class CellSupervisor:
    """Runs one cell under the retry policy, recording every attempt."""

    def __init__(self, runner, policy: RetryPolicy,
                 injector: FaultInjector | None = None,
                 drain: threading.Event | None = None):
        self.runner = runner
        self.policy = policy
        self.injector = injector
        #: Drain signal consulted between attempts; defaults to the
        #: process-wide flag (:func:`request_drain`).
        self.drain = drain if drain is not None else _DRAIN
        self.variance = VarianceModel(runner.config.seed)
        self._log = get_logger("repro.resilience")

    # ------------------------------------------------------------------
    def _backoff_s(self, system: str, algorithm: str, n_threads: int,
                   attempt: int) -> float:
        nominal = self.policy.nominal_backoff_s(attempt)
        return self.variance.jitter(
            nominal, ("backoff", system, algorithm, n_threads, attempt))

    # ------------------------------------------------------------------
    def run_cell(self, system: str, algorithm: str,
                 n_threads: int) -> CellOutcome:
        """Run one cell to a terminal outcome; never raises ReproError."""
        cid = cell_id(system, algorithm, n_threads)
        tracer = getattr(self.runner, "tracer", None) or Tracer()
        machine = self.runner.config.machine
        # Harness-side timeline for this cell: attempt windows and
        # backoff sleeps, all simulated, all starting at 0 so records
        # are identical whether the cell ran first or after a resume.
        clock = SimulatedClock(idle_pkg_watts=machine.idle_pkg_watts,
                               idle_dram_watts=machine.idle_dram_watts)
        tracer.bind_clock(clock)
        attempts: list[AttemptRecord] = []
        with tracer.span(f"cell:{cid}", category="cell", system=system,
                         algorithm=algorithm,
                         n_threads=n_threads) as cell_sp:
            for attempt in range(self.policy.max_attempts):
                fault = None
                if self.injector is not None:
                    fault = self.injector.fault_for(system, algorithm,
                                                    n_threads, attempt)
                    if fault is not None and fault.kind == "hang":
                        # A hang is only observed at the deadline.
                        fault = type(fault)(kind="hang",
                                            seconds=self.policy.timeout_s)
                started = clock.now
                failure = None
                path = None
                # Every attempt is a sibling span under the cell span;
                # failed ones carry the failure reason as an attribute.
                with tracer.span(f"attempt:{attempt}", category="attempt",
                                 cell=cid, retry_index=attempt) as asp:
                    try:
                        path = self.runner.run_system_algorithm(
                            system, algorithm, n_threads, fault=fault)
                    except (InjectedCrashError, CellTimeoutError,
                            ReproError) as exc:
                        clock.advance(self.runner.last_cell_seconds)
                        status = (
                            "timeout" if isinstance(exc, CellTimeoutError)
                            else "crash"
                            if isinstance(exc, InjectedCrashError)
                            else "error")
                        failure = (exc, status)
                        asp.set(status=status,
                                failure_reason=f"{type(exc).__name__}: "
                                               f"{exc}")
                    else:
                        clock.advance(self.runner.last_cell_seconds)
                        asp.set(status="ok" if path is not None
                                else "unsupported")
                if failure is not None:
                    exc, status = failure
                    tracer.counter("epg_attempts_total", system=system,
                                   algorithm=algorithm, status=status)
                    # A draining supervisor spends no more attempts on
                    # this cell: the failure goes straight to quarantine
                    # (recorded exactly once, below -- both exits share
                    # the single trailing quarantine block).
                    draining = self.drain.is_set()
                    backoff = None
                    if attempt + 1 < self.policy.max_attempts \
                            and not draining:
                        backoff = self._backoff_s(system, algorithm,
                                                  n_threads, attempt)
                    attempts.append(AttemptRecord(
                        attempt=attempt, status=status,
                        error=f"{type(exc).__name__}: {exc}",
                        started_s=started, ended_s=clock.now,
                        backoff_s=backoff))
                    if backoff is not None:
                        clock.advance(backoff)  # idle: the harness sleeps
                        tracer.counter("epg_retries_total", system=system,
                                       algorithm=algorithm)
                        tracer.counter("epg_backoff_seconds_total",
                                       inc=backoff, system=system,
                                       algorithm=algorithm)
                        self._log.info(
                            "retrying %s after %s (backoff %.3fs)",
                            cid, type(exc).__name__, backoff)
                        continue
                    if draining and attempt + 1 < self.policy.max_attempts:
                        self._log.warning(
                            "draining: %s quarantined without its %d "
                            "remaining retr%s", cid,
                            self.policy.max_attempts - attempt - 1,
                            "y" if self.policy.max_attempts
                            - attempt - 1 == 1 else "ies")
                        cell_sp.set(drained=True)
                    break
                if path is None:
                    # Capability hole, not a failure: no retry, no
                    # attempt spent -- the paper's PowerGraph-has-no-BFS
                    # case.
                    cell_sp.set(status="unsupported")
                    tracer.counter("epg_cells_total", status="unsupported")
                    return CellOutcome(cell=cid, status="unsupported",
                                       log=None, attempts=())
                tracer.counter("epg_attempts_total", system=system,
                               algorithm=algorithm, status="ok")
                attempts.append(AttemptRecord(
                    attempt=attempt, status="ok", error=None,
                    started_s=started, ended_s=clock.now))
                rel = Path(path).relative_to(
                    self.runner.config.output_dir).as_posix()
                cell_sp.set(status="completed")
                tracer.counter("epg_cells_total", status="completed")
                return CellOutcome(cell=cid, status="completed", log=rel,
                                   attempts=tuple(attempts))
            self._log.warning("quarantining %s after %d attempt(s)",
                              cid, len(attempts))
            cell_sp.set(status="quarantined")
            tracer.counter("epg_quarantines_total", system=system,
                           algorithm=algorithm)
            tracer.counter("epg_cells_total", status="quarantined")
            return CellOutcome(cell=cid, status="quarantined", log=None,
                               attempts=tuple(attempts))
