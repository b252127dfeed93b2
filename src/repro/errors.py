"""Exception hierarchy for easy-parallel-graph-*.

Every error raised on purpose by this package derives from
:class:`ReproError` so callers can catch framework failures without
swallowing programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphFormatError(ReproError):
    """A graph file or in-memory edge list violates its format contract."""


class DatasetError(ReproError):
    """A dataset cannot be generated, located, or homogenized."""


class SystemCapabilityError(ReproError):
    """A graph system was asked for an algorithm it does not provide.

    The paper depends on these holes being real: PowerGraph ships no BFS
    reference implementation, the Graph500 ships *only* BFS, and
    Graphalytics refuses to run SSSP on unweighted graphs.
    """


class ConfigError(ReproError):
    """An experiment configuration is internally inconsistent."""


class LogParseError(ReproError):
    """A native-format log file could not be parsed back into records.

    Carries the offending file, 1-based line number, and raw line (when
    known) both as attributes and in the rendered message, so a damaged
    log can be located without re-parsing by hand.
    """

    def __init__(self, message: str, *, path=None, line_no: int | None = None,
                 line: str | None = None):
        self.path = str(path) if path is not None else None
        self.line_no = line_no
        self.line = line
        where = []
        if self.path is not None:
            where.append(self.path)
        if line_no is not None:
            where.append(f"line {line_no}")
        full = (":".join(where) + f": {message}") if where else message
        if line is not None:
            full += f" (raw: {line!r})"
        super().__init__(full)


class ValidationError(ReproError):
    """An algorithm result failed the Graph500-style output validation."""


class PowerMeasurementError(ReproError):
    """The simulated RAPL interface was used out of protocol order."""


class CellTimeoutError(ReproError):
    """A runner cell made no progress before its per-attempt deadline.

    Mirrors the paper's experience of runs that hang at high thread
    counts: the harness kills the run and either retries or quarantines
    the cell instead of waiting forever.
    """


class CheckpointError(ReproError):
    """A checkpoint manifest or suite manifest is missing or corrupt."""


class TraceError(ReproError):
    """A recorded trace is missing, malformed, or violates the span
    schema (bad nesting, non-monotonic simulated timestamps)."""


class CacheError(ReproError):
    """The artifact cache was misused (bad size spec, missing
    directory for a maintenance command).

    Never raised on a corrupt *entry*: corruption is handled by
    evicting the entry and regenerating the artifact, because a cache
    must degrade to a miss, not to a failure.
    """


class ServiceError(ReproError):
    """The query daemon was misconfigured or failed to start (bad
    graph spec, port in use, unreadable manifest).

    Never raised per-request: request failures degrade to HTTP error
    responses (429/503) so one bad query can never take the daemon
    down with it.
    """


class ShardError(ReproError):
    """The sharded execution engine lost a worker or an arena.

    Raised when a shard worker dies (crash, SIGKILL) or a superstep
    barrier times out; the engine tears down its shared-memory segments
    before raising, so an aborted sharded run never leaks ``/dev/shm``
    entries or resource-tracker warnings.
    """


class DashboardError(ReproError):
    """The live dashboard was misconfigured or failed to start
    (nothing to watch, port in use).

    Never raised while serving: a vanished run directory, an
    unreachable daemon, or an incompatible ``/stats`` schema degrade
    to error panels on the affected page, because an ops console must
    outlive the things it watches.
    """
