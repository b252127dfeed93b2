"""Exporters and validators for recorded trace event logs.

Everything here operates on the ``events.jsonl`` a
:class:`~repro.observability.tracer.Tracer` wrote -- no live tracer is
needed, so a finished (or crashed) run directory is always inspectable:

* :func:`read_events` / :func:`tail_events` / :func:`validate_events`
  -- load the log through the one reader,
  :func:`~repro.observability.tracer.parse_events` (tolerating, and
  reporting, the torn final line an in-flight append leaves; raising
  on any corrupt line), and check what spans one line at a time
  cannot: unique ids, parent nesting, a monotonic simulated timeline.
* :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  trace-event format (``trace.json``), loadable in Perfetto or
  chrome://tracing, on the simulated timeline.
* :func:`derive_metrics` -- replay counter/observe/gauge events into a
  fresh :class:`~repro.observability.metrics.MetricsRegistry`
  (:meth:`~repro.observability.metrics.MetricsRegistry.apply`); this is
  what ``epg metrics <dir>`` renders, and it reproduces the snapshot
  the suite wrote at completion because both sides share bucket and
  help tables.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import TraceError
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import (EVENTS_NAME, parse_events,
                                        sim_stamp)

__all__ = ["read_events", "tail_events", "validate_events",
           "span_events", "spans_by_id", "chrome_trace", "write_chrome_trace",
           "derive_metrics", "resolve_events_path"]


def resolve_events_path(path: str | Path) -> Path:
    """Accept a run directory, a trace directory, or the file itself."""
    p = Path(path)
    if p.is_file():
        return p
    for candidate in (p / EVENTS_NAME, p / "trace" / EVENTS_NAME):
        if candidate.is_file():
            return candidate
    raise TraceError(f"no {EVENTS_NAME} under {p}")


def tail_events(path: str | Path, *,
                strict: bool = False) -> tuple[list[dict], bool]:
    """Read every event; return ``(events, truncated_tail)``.

    A final line with no trailing newline is the *normal* state of a
    log being appended mid-run (and the signature a hard-killed writer
    leaves): by default it is dropped, even if it happens to parse, and
    reported through the second return value, so an in-flight or
    crashed run's log stays inspectable.  ``strict=True`` raises
    :class:`TraceError` on any torn tail instead.  A corrupt *complete*
    line is always an error -- a line that made it to its newline can
    never become valid later.
    """
    p = resolve_events_path(path)
    raw = p.read_bytes()
    events, bad, end = parse_events(raw)
    if bad:
        raise TraceError(f"{p}:{bad[0]}")
    truncated = end < len(raw)
    if truncated and strict:
        raise TraceError(f"{p}: truncated final line (in-flight append "
                         "or hard-killed writer)")
    if not events:
        raise TraceError(f"{p}: empty event log")
    return events, truncated


def read_events(path: str | Path, *, strict: bool = False) -> list[dict]:
    """:func:`tail_events` without the truncation flag."""
    return tail_events(path, strict=strict)[0]


def span_events(events: list[dict]) -> list[dict]:
    return [ev for ev in events if ev["type"] == "span"]


def spans_by_id(spans: list[dict]) -> dict[int, dict]:
    """Index spans by id; a duplicated id is a :class:`TraceError`.

    Every span tree is built on this: with unique ids each span has one
    parent, so no walk down from the roots can revisit a span.  A
    duplicated id gives a span two parents and can close a cycle.
    """
    by_id: dict[int, dict] = {}
    for ev in spans:
        sid = ev["id"]
        if sid in by_id:
            raise TraceError(f"duplicate span id {sid}")
        by_id[sid] = ev
    return by_id


def validate_events(events: list[dict], *,
                    truncated_tail: bool = False) -> dict:
    """Check the span schema; return summary stats or raise TraceError.

    Every event already passed the reader's per-line checks (fields,
    types, schema version); this checks what needs more than one line
    or the meaning of the numbers: unique span ids, span intervals with
    ``t1 >= t0`` on both clocks, children contained in their parent's
    simulated interval, and a monotonic simulated timeline across the
    event stream as written.  Spans are emitted at close, so a parent
    legally appears *after* its children -- and a hard-killed run
    legally loses still-open ancestors entirely; such orphaned spans
    are counted, not rejected.  The same tolerance extends to a
    truncated final line (the normal state of a log being appended
    mid-run): pass the flag :func:`tail_events` returned and it is
    *reported* in the summary, never rejected -- callers that want the
    hard-fail behavior read with ``strict=True`` instead.
    """
    spans = span_events(events)
    by_id = spans_by_id(spans)
    for sid, ev in by_id.items():
        if ev["t1_sim"] < ev["t0_sim"]:
            raise TraceError(
                f"span {sid} ({ev['name']}): t1_sim < t0_sim")
        if ev["t1_wall"] < ev["t0_wall"]:
            raise TraceError(
                f"span {sid} ({ev['name']}): t1_wall < t0_wall")
    roots = 0
    orphans = 0
    for ev in spans:
        parent = ev["parent"]
        if parent is None:
            roots += 1
            continue
        pev = by_id.get(parent)
        if pev is None:
            # Spans are emitted at close, so a hard kill loses the
            # still-open ancestors of already-closed spans.  A dangling
            # parent id therefore marks an interrupted run, not a
            # corrupt log; the span is treated as a root.
            orphans += 1
            continue
        eps = 1e-9
        if (ev["t0_sim"] < pev["t0_sim"] - eps
                or ev["t1_sim"] > pev["t1_sim"] + eps):
            raise TraceError(
                f"span {ev['id']} ({ev['name']}) escapes its parent "
                f"{parent} ({pev['name']}) on the simulated timeline")
    # Monotonic simulated close times, in emission order.  Spans close
    # LIFO, so each emitted stamp is the tracer's high-water mark.
    last = 0.0
    for ev in events:
        t = sim_stamp(ev)
        if t < last - 1e-9:
            raise TraceError(
                f"simulated timeline went backwards: {t} after {last}")
        last = max(last, t)
    return {"events": len(events), "spans": len(spans), "roots": roots,
            "orphans": orphans, "sim_end_s": last,
            "truncated_tail": truncated_tail,
            "categories": sorted({ev["cat"] for ev in spans})}


def chrome_trace(events: list[dict]) -> dict:
    """Render spans as Chrome trace-event JSON on the simulated clock.

    Spans become "X" (complete) events with microsecond timestamps;
    metric counters become "C" events so Perfetto draws retry and
    quarantine tracks alongside the span flame.
    """
    trace_events: list[dict] = [
        {"ph": "M", "pid": 1, "name": "process_name",
         "args": {"name": "epg simulated timeline"}},
        {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
         "args": {"name": "harness"}},
    ]
    for ev in span_events(events):
        args = dict(ev["attrs"])
        args["wall_s"] = round(ev["t1_wall"] - ev["t0_wall"], 9)
        trace_events.append({
            "ph": "X", "pid": 1, "tid": 1,
            "name": ev["name"], "cat": ev["cat"],
            "ts": ev["t0_sim"] * 1e6,
            "dur": max(ev["t1_sim"] - ev["t0_sim"], 0.0) * 1e6,
            "args": args,
        })
    totals: dict[str, float] = {}
    for ev in events:
        if ev["type"] != "counter":
            continue
        name = ev["name"]
        totals[name] = totals.get(name, 0.0) + ev["inc"]
        trace_events.append({
            "ph": "C", "pid": 1, "name": name,
            "ts": ev["t_sim"] * 1e6,
            "args": {"value": totals[name]},
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: list[dict], out_path: str | Path) -> Path:
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(chrome_trace(events)) + "\n",
                   encoding="utf-8")
    return out


def derive_metrics(events: list[dict]) -> MetricsRegistry:
    """Replay metric events into a fresh registry.

    A log that reuses one metric name across kinds, or decrements a
    counter, has no registry; that is a :class:`TraceError`.
    """
    reg = MetricsRegistry()
    for ev in events:
        try:
            reg.apply(ev)
        except ValueError as exc:
            raise TraceError(
                f"cannot replay {ev['type']} {ev['name']!r}: {exc}"
            ) from exc
    return reg
