"""Resilient suite execution.

The paper's harness (EPG*) exists because benchmarking five
independent systems is messy: capabilities are missing, runs crash or
hang, logs come back damaged.  This subpackage gives the reproduction
the same tolerance, deterministically:

* :mod:`~repro.resilience.faults` -- seed-driven fault injection
  (crash / hang / corrupt-log) so every failure path is testable;
* :mod:`~repro.resilience.retry` -- retry policy (bounded attempts,
  capped exponential backoff with seeded jitter, per-attempt deadline)
  and structured :class:`AttemptRecord`\\ s;
* :mod:`~repro.resilience.supervisor` -- wraps each Runner cell,
  records every attempt, quarantines instead of raising;
* :mod:`~repro.resilience.checkpoint` -- atomic per-experiment
  ``checkpoint.json`` manifests enabling skip-completed reruns and
  ``epg resume``.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_NAME,
    SuiteCheckpoint,
    config_digest,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultRule,
    InjectedCrashError,
    corrupt_log,
    parse_fault_spec,
)
from repro.resilience.retry import (
    DEFAULT_CELL_TIMEOUT_S,
    AttemptRecord,
    RetryPolicy,
)
from repro.resilience.supervisor import (
    CellOutcome,
    CellSupervisor,
    cell_id,
    request_drain,
)

__all__ = [
    "AttemptRecord", "CellOutcome", "CellSupervisor", "CHECKPOINT_NAME",
    "DEFAULT_CELL_TIMEOUT_S", "FAULT_KINDS", "Fault", "FaultInjector",
    "FaultRule", "InjectedCrashError", "RetryPolicy", "SuiteCheckpoint",
    "cell_id", "config_digest", "corrupt_log", "parse_fault_spec",
    "request_drain",
]
