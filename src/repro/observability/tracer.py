"""Hierarchical tracing: spans on both the wall and simulated clocks.

The paper's central methodological point is that aggregate runtimes
hide where time actually goes -- file read, construction, and algorithm
must be separable (Sec. II).  The :class:`Tracer` makes that breakdown
a first-class artifact of *every* run: each unit of harness work
(suite, experiment, cell, execution attempt, kernel phase) is a span
with a wall-clock interval, a simulated-clock interval, and free-form
attributes (system, algorithm, root, retry index, failure reason,
simulated RAPL energy).  Closed spans are appended as single JSON lines
to ``<run>/trace/events.jsonl`` -- append-only, so checkpoint-resume
extends the same timeline instead of clobbering it.  The log has one
reader, :func:`parse_events`, which every consumer (exporters, resume,
the dashboard's follower) goes through.

Design points:

* **Two clocks per span.**  Wall time measures what the harness itself
  costs; simulated time is the priced timeline every figure in the
  report is built from.  Exporters use the simulated timeline (it is
  the deterministic one); wall durations ride along as attributes.
* **One global simulated timeline.**  Cell and attempt clocks each
  start at zero (so checkpointed records survive resume); the tracer
  splices them into one monotonic timeline by following bound clocks
  with max-seek semantics (:meth:`Tracer.bind_clock`).
* **Disabled is free.**  ``Tracer()`` with no directory is a null
  tracer: ``span()`` returns a shared no-op context manager and metric
  calls return immediately, so instrumented code never branches.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.errors import TraceError
from repro.observability.metrics import MetricsRegistry

__all__ = ["Span", "Tracer", "EVENTS_NAME", "SCHEMA_VERSION",
           "parse_events", "sim_end", "sim_stamp"]

#: Event-log filename inside the tracer directory.
EVENTS_NAME = "events.jsonl"

#: Version stamped into every ``meta`` event; bump on schema changes.
SCHEMA_VERSION = 1

_NUM = (int, float)
_MISSING = object()

#: Per event type, the fields the log's consumers read and their types.
_SCHEMA = {
    "span": {"id": int, "parent": (int, type(None)), "name": str,
             "cat": str, "t0_wall": _NUM, "t1_wall": _NUM,
             "t0_sim": _NUM, "t1_sim": _NUM, "attrs": dict},
    "counter": {"name": str, "labels": dict, "inc": _NUM, "t_sim": _NUM},
    "observe": {"name": str, "labels": dict, "value": _NUM,
                "t_sim": _NUM},
    "gauge": {"name": str, "labels": dict, "value": _NUM, "t_sim": _NUM},
    "meta": {"version": int, "t_sim": _NUM},
}


def _problem(ev) -> str | None:
    """Why ``ev`` is not an event the tracer writes (None if it is)."""
    if not isinstance(ev, dict):
        return "event is not an object"
    kind = ev.get("type")
    if not isinstance(kind, str) or kind not in _SCHEMA:
        return f"unknown event type {kind!r}"
    for key, types in _SCHEMA[kind].items():
        if not isinstance(ev.get(key, _MISSING), types):
            return f"{kind} field {key!r} missing or mistyped"
    if kind == "meta" and ev["version"] != SCHEMA_VERSION:
        return f"unsupported schema version {ev['version']!r}"
    return None


def parse_events(data: bytes) -> tuple[list[dict], list[str], int]:
    """Read an event log's bytes; return ``(events, bad, end)``.

    Only the newline-terminated prefix ``data[:end]`` is read: whatever
    follows the last newline is the torn tail an in-flight append or a
    hard-killed writer leaves.  Each complete line must be UTF-8 JSON
    matching its type's fields in ``_SCHEMA`` (a ``meta`` line also
    this :data:`SCHEMA_VERSION`); blank lines are skipped, and every
    other line lands in ``bad`` as ``"<line number>: <reason>"``.  A
    complete line never becomes valid later, so callers share one
    policy: batch readers and resume raise :class:`TraceError` on the
    first bad line, and the live follower counts them.
    """
    end = data.rfind(b"\n") + 1
    events: list[dict] = []
    bad: list[str] = []
    for lineno, raw in enumerate(data[:end].split(b"\n")[:-1], start=1):
        if not raw.strip():
            continue
        try:
            ev = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            bad.append(f"{lineno}: malformed JSON: {exc}")
            continue
        problem = _problem(ev)
        if problem is None:
            events.append(ev)
        else:
            bad.append(f"{lineno}: {problem}")
    return events, bad, end


def sim_stamp(ev: dict) -> float:
    """An event's simulated stamp: a span's close, any other's ``t_sim``."""
    return float(ev["t1_sim"] if ev["type"] == "span" else ev["t_sim"])


def sim_end(events: list[dict]) -> float:
    """Simulated-time high-water mark of ``events`` (zero for none)."""
    return max([0.0, *map(sim_stamp, events)])


class Span:
    """One open unit of work; becomes a ``span`` event when closed."""

    __slots__ = ("name", "category", "span_id", "parent_id",
                 "t0_wall", "t0_sim", "attrs")

    def __init__(self, name: str, category: str, span_id: int,
                 attrs: dict):
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id: int | None = None
        self.t0_wall = 0.0
        self.t0_sim = 0.0
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes to the span (e.g. status, energy)."""
        self.attrs.update(attrs)


class _NullSpan:
    __slots__ = ()

    def set(self, **attrs) -> None:
        pass


class _NullSpanCM:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CM = _NullSpanCM()


class _SpanCM:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        t = self._tracer
        sp = self._span
        sp.parent_id = t._stack[-1].span_id if t._stack else None
        sp.t0_wall = t._wall()
        sp.t0_sim = t.sim_now
        t._stack.append(sp)
        return sp

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self._tracer
        sp = t._stack.pop()
        if exc_type is not None and "error" not in sp.attrs:
            sp.attrs["error"] = exc_type.__name__
        t._emit_span(sp)
        return False


class Tracer:
    """Produces the run's span stream, event log, and live metrics.

    ``Tracer(directory)`` opens (or, with ``resume=True``, appends to)
    ``directory/events.jsonl``; ``Tracer()`` is the disabled null
    tracer.  On resume the tracer recovers the previous session's
    simulated-time high-water mark and next span id from the existing
    log, so the appended timeline stays globally monotonic.
    """

    @classmethod
    def capture_only(cls) -> "Tracer":
        """An enabled tracer with no log of its own, for a pool worker:
        the events of the cells it runs live only in their captures."""
        tracer = cls()
        tracer._fh = open(os.devnull, "w", encoding="utf-8")
        return tracer

    def __init__(self, directory: str | Path | None = None, *,
                 resume: bool = False):
        self.metrics = MetricsRegistry()
        self.sim_now = 0.0
        self._stack: list[Span] = []
        self._fh = None
        self._next_id = 1
        self._capture: list[dict] | None = None
        self._capture_prior = (0.0, 1)
        self._t0 = time.perf_counter()
        self.directory = Path(directory) if directory is not None else None
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path
        resumed = False
        if path.exists():
            if resume:
                resumed = self._recover(path)
            else:
                path.unlink()
        self._fh = path.open("a", encoding="utf-8")
        self._write({"type": "meta", "version": SCHEMA_VERSION,
                     "resumed": resumed, "t_sim": self.sim_now,
                     "wall_unix": time.time()})

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._fh is not None

    @property
    def path(self) -> Path | None:
        return (self.directory / EVENTS_NAME
                if self.directory is not None else None)

    def _wall(self) -> float:
        return time.perf_counter() - self._t0

    def _recover(self, path: Path) -> bool:
        """Recover sim high-water mark + next id from an existing log.

        A corrupt line raises :class:`TraceError` before the log is
        touched: appending to a log its readers reject would only fail
        later, at export.  A hard-killed writer's torn tail is
        truncated away so the first appended event does not
        concatenate onto it.
        """
        raw = path.read_bytes()
        events, bad, end = parse_events(raw)
        if bad:
            raise TraceError(f"{path}:{bad[0]}; not resuming onto it")
        if end < len(raw):
            with path.open("r+b") as fh:
                fh.truncate(end)
        self.sim_now = sim_end(events)
        self._next_id = 1 + max((ev["id"] for ev in events
                                 if ev["type"] == "span"), default=0)
        return bool(events)

    def _write(self, event: dict) -> None:
        if self._capture is not None:
            self._capture.append(event)
            return
        self._fh.write(json.dumps(event, sort_keys=True, default=str)
                       + "\n")

    def _emit_span(self, sp: Span) -> None:
        self._write({
            "type": "span", "id": sp.span_id, "parent": sp.parent_id,
            "name": sp.name, "cat": sp.category,
            "t0_wall": round(sp.t0_wall, 9),
            "t1_wall": round(self._wall(), 9),
            "t0_sim": sp.t0_sim, "t1_sim": self.sim_now,
            "attrs": sp.attrs,
        })
        # Cell boundaries are the natural durability points: flush so a
        # killed run's log still holds every finished cell.
        if sp.category in ("cell", "pipeline"):
            self._fh.flush()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "harness", **attrs):
        """Context manager for one span; yields the :class:`Span`."""
        if self._fh is None:
            return _NULL_CM
        sp = Span(name, category, self._next_id, attrs)
        self._next_id += 1
        return _SpanCM(self, sp)

    @property
    def current_span_id(self) -> int | None:
        """Id of the innermost open span (None outside any span)."""
        return self._stack[-1].span_id if self._stack else None

    def span_complete(self, name: str, category: str = "service", *,
                      duration_s: float, **attrs) -> None:
        """Append one already-finished root span.

        The serving path closes spans from many handler threads, where
        the nesting stack (:meth:`span`) would interleave; a completed
        span bypasses the stack entirely.  The span occupies
        ``[sim_now, sim_now + duration_s]`` on the simulated timeline --
        appending keeps the log's monotonic-``t1_sim`` invariant as
        long as callers serialize access (the service telemetry wrapper
        holds one lock around every tracer call).
        """
        if self._fh is None:
            return
        span_id = self._next_id
        self._next_id += 1
        duration_s = max(float(duration_s), 0.0)
        t1_wall = self._wall()
        t0_sim = self.sim_now
        self.advance_sim(duration_s)
        self._write({
            "type": "span", "id": span_id, "parent": None,
            "name": name, "cat": category,
            "t0_wall": round(max(t1_wall - duration_s, 0.0), 9),
            "t1_wall": round(t1_wall, 9),
            "t0_sim": t0_sim, "t1_sim": self.sim_now,
            "attrs": attrs,
        })
        self._fh.flush()

    # ------------------------------------------------------------------
    # Cross-process capture + merge (repro.parallel)
    # ------------------------------------------------------------------
    def begin_capture(self) -> None:
        """Start diverting emitted events into a cell-relative group.

        Every cell runs between ``begin_capture()`` and
        :meth:`take_capture`, on the parent's tracer (one job) or on a
        pool worker's :meth:`capture_only` tracer.  The simulated clock
        restarts at zero, events are buffered instead of written, and
        metric updates wait for the replay, so the caller splices the
        group on through :meth:`ingest_cell_events` whichever process
        ran the cell.  Routing both execution modes through one splice
        is what makes the two timelines bit-identical: every cell stamp
        is computed cell-locally and shifted by one addition, in the
        same order, regardless of which process ran the cell.
        """
        if self._fh is None:
            return
        self._capture = []
        self._capture_prior = (self.sim_now, self._next_id)
        self.sim_now = 0.0

    def take_capture(self) -> list[dict]:
        """Stop capturing; return the buffered event group.

        The simulated clock and the span-id counter go back to their
        pre-capture values, leaving the tracer exactly as if the cell
        had not run yet -- the follow-up :meth:`ingest_cell_events`
        re-applies the group.
        """
        if self._capture is None:
            return []
        events, self._capture = self._capture, None
        self.sim_now, self._next_id = self._capture_prior
        return events

    def ingest_cell_events(self, events: list[dict],
                           parent_id: int | None = None) -> None:
        """Splice one finished cell's captured event group onto this
        tracer's timeline (cross-process span reparenting).

        Span ids are reassigned from this tracer's counter in the
        group's open order, the group's root spans are reparented under
        ``parent_id`` (default: the innermost open span, exactly where
        a serially-executed cell would nest), all simulated timestamps
        are shifted by the current simulated high-water mark, and
        metric events are replayed into the live registry.  Because
        captured groups are cell-relative (:meth:`begin_capture`) the
        shifted timestamps are bit-identical to the ones a serial run
        would have recorded, which is what keeps a traced ``--jobs N``
        report byte-identical to ``--jobs 1``.
        """
        if self._fh is None or not events:
            return
        if parent_id is None:
            parent_id = self.current_span_id
        base = self.sim_now
        idmap: dict[int, int] = {}
        for old in sorted(ev["id"] for ev in events
                          if ev.get("type") == "span"):
            idmap[old] = self._next_id
            self._next_id += 1
        end = base
        for ev in events:
            ev = dict(ev)
            if ev["type"] == "span":
                ev["id"] = idmap[ev["id"]]
                ev["parent"] = idmap.get(ev["parent"], parent_id)
                ev["t0_sim"] = ev["t0_sim"] + base
                ev["t1_sim"] = ev["t1_sim"] + base
                end = max(end, ev["t1_sim"])
            else:
                ev["t_sim"] = ev["t_sim"] + base
                end = max(end, ev["t_sim"])
            self.metrics.apply(ev)
            self._write(ev)
        self.sim_seek(end)
        self._fh.flush()

    # ------------------------------------------------------------------
    # Simulated timeline
    # ------------------------------------------------------------------
    def sim_seek(self, t: float) -> None:
        """Move the global simulated clock forward to ``t`` (monotone)."""
        if t > self.sim_now:
            self.sim_now = t

    def advance_sim(self, dt: float) -> None:
        if dt > 0:
            self.sim_now += dt

    def bind_clock(self, clock) -> None:
        """Splice a :class:`~repro.machine.clock.SimulatedClock` into
        the global timeline: every ``advance`` on the clock seeks the
        tracer to (bind offset + clock.now).  Cell/attempt clocks each
        start at zero; binding maps them onto the suite timeline."""
        if self._fh is None:
            return
        base = self.sim_now - clock.now

        def _follow(c) -> None:
            self.sim_seek(base + c.now)

        clock.on_advance = _follow

    # ------------------------------------------------------------------
    # Metrics (mirrored into the event log)
    # ------------------------------------------------------------------
    def counter(self, name: str, inc: float = 1.0, *, log: bool = True,
                **labels) -> None:
        """Increment a live counter; with ``log=True`` (the default)
        the update is also appended to the event log.

        ``log=False`` updates *only* the in-process registry -- for
        metrics that describe the harness rather than the run (cache
        hits/misses): keeping them out of ``events.jsonl`` is what lets
        a warm-cache trace stay byte-identical to a cold one.  Such
        events are never replayed by an ingest, so they update the
        registry even during a capture.
        """
        if self._fh is None:
            return
        self._metric({"type": "counter", "name": name, "labels": labels,
                      "inc": inc, "t_sim": self.sim_now}, log)

    def observe(self, name: str, value: float, *, log: bool = True,
                **labels) -> None:
        if self._fh is None:
            return
        self._metric({"type": "observe", "name": name, "labels": labels,
                      "value": float(value), "t_sim": self.sim_now}, log)

    def gauge(self, name: str, value: float, *, log: bool = True,
              **labels) -> None:
        if self._fh is None:
            return
        self._metric({"type": "gauge", "name": name, "labels": labels,
                      "value": float(value), "t_sim": self.sim_now}, log)

    def _metric(self, event: dict, log: bool) -> None:
        # A capture defers logged updates to the ingest replay, so each
        # cell's metrics count exactly once.
        if not log or self._capture is None:
            self.metrics.apply(event)
        if log:
            self._write(event)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Flush and close the event log; the tracer becomes disabled."""
        if self._fh is None:
            return
        self._fh.flush()
        self._fh.close()
        self._fh = None
