"""The ``epg dash`` HTTP server: live, read-only, stdlib-only.

One :class:`ThreadingHTTPServer` (the same machinery ``epg serve``
fronts queries with) serving four HTML pages and a JSON API over the
artifacts other processes are writing *right now*:

====================================  ================================
``/``                                 runs index (discovery re-scan)
``/run/<id>``                         span timeline page
``/run/<id>/metrics``                 per-run metric sparklines
``/run/<id>/timeline.svg``            live SVG render of the trace
``/service``                          daemon roster / admission state
``/api/runs``                         machine-readable index
``/api/run/<id>/spans``               tail-follow span summary
``/api/run/<id>/metrics``             metric totals + sampled history
``/api/service``                      daemon snapshot + history
``/healthz``                          liveness
====================================  ================================

Design rules, in order: **read-only** (every artifact is opened for
reading; attaching a dashboard must leave a run byte-identical),
**never crash while serving** (vanished runs, torn logs, dead daemons
degrade to error panels), and **no path from URLs to the filesystem**
(run ids resolve only through :func:`repro.dashboard.runs.discover_runs`).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from pathlib import Path

from repro.dashboard import pages
from repro.dashboard.follower import EventFollower
from repro.dashboard.runs import RunInfo, discover_runs
from repro.dashboard.service_poll import ServicePoller
from repro.errors import DashboardError, TraceError
from repro.httputil import (FrontEndServer, bind, serve_until_stopped,
                            write_response)
from repro.logging_util import get_logger
from repro.observability.timeline import render_svg, span_tree

__all__ = ["DashConfig", "DashboardServer"]

#: Rows in the per-run "slowest spans" table.
_SLOWEST_N = 10

#: The metric kind each event type feeds in a run's totals.
_METRIC_KIND = {"counter": "counter", "observe": "histogram",
                "gauge": "gauge"}


@dataclass
class DashConfig:
    """Everything ``epg dash`` needs."""

    root: Path | None = None
    serve_url: str | None = None
    host: str = "127.0.0.1"
    port: int = 8780
    #: Metric-history snapshots kept per run (and for the daemon).
    history: int = 512
    #: Default max span nesting depth for the live SVG (keeps renders
    #: of deep in-flight traces cheap); ``?depth=`` overrides per
    #: request, ``0`` disables the cap.
    max_depth: int = 6

    def __post_init__(self):
        if self.root is None and not self.serve_url:
            raise DashboardError(
                "nothing to watch: pass a run/serve directory, "
                "--serve-url, or both")
        if self.root is not None:
            self.root = Path(self.root)
            if not self.root.is_dir():
                raise DashboardError(
                    f"watch root {self.root} is not a directory")


class _RunState:
    """Follower plus the state derived from its events.

    Derived state is rebuilt whenever the follower resets (the run
    was re-created from scratch), so a dashboard left attached across
    ``rm -rf && epg reproduce`` never shows stale spans.
    """

    def __init__(self, trace_path: Path, history_limit: int):
        self.follower = EventFollower(trace_path)
        self.history_limit = history_limit
        self.totals: dict[str, dict] = {}
        self.history: list[dict] = []
        self._snap_offset = -1

    def poll(self) -> None:
        before = self.follower.resets
        fresh = self.follower.poll()
        if self.follower.resets != before:
            self.totals = {}
            self.history = []
            self._snap_offset = -1
        for ev in fresh:
            kind = _METRIC_KIND.get(ev["type"])
            if kind is None:
                continue
            entry = self.totals.get(ev["name"])
            if entry is not None and entry["kind"] != kind:
                # One name logged as two kinds has no registry
                # (derive_metrics rejects it): count the event as
                # corrupt and keep serving what came first.
                self.follower.malformed += 1
                continue
            if kind == "counter":
                entry = self.totals.setdefault(
                    ev["name"], {"kind": "counter", "value": 0.0})
                entry["value"] += ev["inc"]
            elif kind == "histogram":
                entry = self.totals.setdefault(
                    ev["name"], {"kind": "histogram", "value": 0.0,
                                 "count": 0})
                entry["value"] += ev["value"]
                entry["count"] += 1
            else:
                self.totals[ev["name"]] = {"kind": "gauge",
                                           "value": float(ev["value"])}

    def sample_history(self) -> None:
        """Append a metric snapshot if the log advanced since the
        last one -- clients polling every couple of seconds are what
        turns this into a periodic series."""
        if self.follower.offset == self._snap_offset:
            return
        self._snap_offset = self.follower.offset
        self.history.append({
            "wall": round(time.time(), 3),
            "sim": round(self.follower.sim_end(), 6),
            "totals": {k: dict(v) for k, v in self.totals.items()},
        })
        del self.history[:-self.history_limit]

    def slowest(self, n: int = _SLOWEST_N) -> list[dict]:
        spans = [ev for ev, _ in _walk(self.follower.events)]
        spans.sort(key=lambda ev: ev["t0_sim"] - ev["t1_sim"])
        out = []
        for ev in spans[:n]:
            attrs = ev.get("attrs") or {}
            out.append({
                "name": ev["name"], "cat": ev["cat"],
                "status": attrs.get("status", "ok"),
                "sim_s": round(ev["t1_sim"] - ev["t0_sim"], 6),
                "wall_s": round(ev["t1_wall"] - ev["t0_wall"], 6),
            })
        return out


def _walk(events: list[dict]):
    roots, children = span_tree(events)
    stack = [(ev, 0) for ev in reversed(roots)]
    while stack:
        ev, depth = stack.pop()
        yield ev, depth
        for child in reversed(children.get(ev["id"], ())):
            stack.append((child, depth + 1))


class DashboardServer:
    """Serve the dashboard until SIGTERM/SIGINT."""

    def __init__(self, config: DashConfig):
        self.config = config
        self.port = config.port
        self._log = get_logger("repro.dashboard")
        self._lock = threading.Lock()
        self._states: dict[str, _RunState] = {}
        self._poller = ServicePoller(
            config.serve_url, history=config.history
        ) if config.serve_url else None
        self._server: FrontEndServer | None = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # State (all reads under the lock: ThreadingHTTPServer handles
    # each request on its own thread)
    # ------------------------------------------------------------------
    def _runs(self) -> dict[str, RunInfo]:
        if self.config.root is None:
            return {}
        return discover_runs(self.config.root)

    def _state_for(self, info: RunInfo) -> _RunState:
        state = self._states.get(info.run_id)
        if state is None or state.follower.path != info.trace_path:
            state = _RunState(info.trace_path, self.config.history)
            self._states[info.run_id] = state
        return state

    # ------------------------------------------------------------------
    # API payloads
    # ------------------------------------------------------------------
    def api_runs(self) -> dict:
        runs = self._runs()
        return {"root": str(self.config.root or ""),
                "runs": [info.to_dict()
                         for _, info in sorted(runs.items())]}

    def api_spans(self, info: RunInfo) -> dict:
        with self._lock:
            state = self._state_for(info)
            state.poll()
            f = state.follower
            return {
                "run_id": info.run_id,
                "in_flight": info.status not in ("complete",),
                "span_count": f.span_count(),
                "event_count": len(f.events),
                "sim_end": f.sim_end(),
                "offset": f.offset,
                "resets": f.resets,
                "malformed": f.malformed,
                "truncated_tail": f.pending_partial,
                "slowest": state.slowest(),
            }

    def api_metrics(self, info: RunInfo) -> dict:
        with self._lock:
            state = self._state_for(info)
            state.poll()
            state.sample_history()
            return {
                "run_id": info.run_id,
                "totals": {k: dict(v)
                           for k, v in sorted(state.totals.items())},
                "history": list(state.history),
            }

    def api_service(self) -> dict:
        # The roster lives in served.json next to the daemon's data;
        # if the watch root holds a service run dir, read it there.
        service_dirs = [info.directory
                        for info in self._runs().values()
                        if info.kind == "service"]
        if self._poller is None:
            # Roster-only view: a serve data dir with no live daemon
            # (or one the operator chose not to point us at).
            roster = ServicePoller(
                "http://unused", data_dir=service_dirs[0]
            ).roster() if service_dirs else []
            return {"configured": bool(service_dirs), "url": None,
                    "reachable": False, "compatible": False,
                    "error": "no --serve-url configured"
                             if service_dirs else None,
                    "stats": None, "graphs": [], "metrics": {},
                    "roster": roster, "history": []}
        with self._lock:
            self._poller.data_dir = service_dirs[0] \
                if service_dirs else None
            snap = self._poller.snapshot()
            snap["configured"] = True
            snap["history"] = list(self._poller.history)
        return snap

    def timeline_svg(self, info: RunInfo, depth: int | None) -> str:
        with self._lock:
            state = self._state_for(info)
            state.poll()
            events = list(state.follower.events)
        if depth is None:
            depth = self.config.max_depth or None
        return render_svg(events, max_depth=depth)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self, *, install_signal_handlers: bool = True,
                      ready_event: threading.Event | None = None
                      ) -> int:
        self._server = bind(self.config.host, self.config.port, _Handler,
                            DashboardError)
        self._server.dash = self            # type: ignore[attr-defined]
        self.port = self._server.server_address[1]
        self._log.info("dashboard on http://%s:%d/ (watching %s%s)",
                       self.config.host, self.port,
                       self.config.root or "-",
                       f", daemon {self.config.serve_url}"
                       if self.config.serve_url else "")
        return serve_until_stopped(
            self._server, self._stop,
            install_signal_handlers=install_signal_handlers,
            ready_event=ready_event)

    def shutdown(self) -> None:
        self._stop.set()


#: Every page and payload is a live view; nothing may be cached.
_NO_STORE = {"Cache-Control": "no-store"}


class _Handler(BaseHTTPRequestHandler):
    server_version = "epg-dash"

    @property
    def dash(self) -> DashboardServer:
        return self.server.dash         # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # route through our logger
        self.dash._log.debug("http: " + fmt, *args)

    # ------------------------------------------------------------------
    def _json(self, payload: dict, status: int = 200) -> None:
        write_response(self, status, "application/json",
                       json.dumps(payload), _NO_STORE)

    def _html(self, markup: str, status: int = 200) -> None:
        write_response(self, status, "text/html; charset=utf-8",
                       markup, _NO_STORE)

    def _not_found(self, api: bool) -> None:
        if api:
            self._json({"error": "not found"}, 404)
        else:
            self._html("<h1>404</h1><p><a href='/'>runs</a></p>", 404)

    # ------------------------------------------------------------------
    def do_GET(self):                           # noqa: N802 (stdlib API)
        parsed = urllib.parse.urlsplit(self.path)
        parts = [urllib.parse.unquote(p)
                 for p in parsed.path.split("/") if p]
        query = urllib.parse.parse_qs(parsed.query)
        try:
            self._route(parts, query)
        except Exception as exc:    # last resort: a panel, not a crash
            status = 422                # the run's log is corrupt
            if not isinstance(exc, TraceError):
                status = 500
                self.dash._log.warning("request %s failed: %s",
                                       self.path, exc)
            try:
                self._json({"error": f"{type(exc).__name__}: {exc}"},
                           status)
            except Exception:
                pass

    def _lookup(self, run_id: str) -> RunInfo | None:
        """Resolve a URL run id through discovery only -- never by
        joining it onto a path -- so traversal inputs just miss."""
        return self.dash._runs().get(run_id)

    def _route(self, parts: list[str], query: dict) -> None:
        dash = self.dash
        if not parts:
            return self._html(pages.index_page())
        if parts == ["healthz"]:
            return self._json({"ok": True})
        if parts == ["service"]:
            return self._html(pages.service_page())
        if parts[0] == "api":
            return self._route_api(parts[1:])
        if parts[0] == "run" and len(parts) in (2, 3):
            info = self._lookup(parts[1])
            if info is None:
                return self._not_found(api=False)
            if len(parts) == 2:
                return self._html(pages.run_page(info.run_id))
            if parts[2] == "metrics":
                return self._html(pages.metrics_page(info.run_id))
            if parts[2] == "timeline.svg":
                depth = None
                if "depth" in query:
                    try:
                        depth = int(query["depth"][0]) or None
                    except ValueError:
                        depth = None
                svg = dash.timeline_svg(info, depth)
                return write_response(self, 200, "image/svg+xml", svg,
                                      _NO_STORE)
        return self._not_found(api=False)

    def _route_api(self, parts: list[str]) -> None:
        dash = self.dash
        if parts == ["runs"]:
            return self._json(dash.api_runs())
        if parts == ["service"]:
            return self._json(dash.api_service())
        if len(parts) == 3 and parts[0] == "run":
            info = self._lookup(parts[1])
            if info is None:
                return self._not_found(api=True)
            if parts[2] == "spans":
                return self._json(dash.api_spans(info))
            if parts[2] == "metrics":
                return self._json(dash.api_metrics(info))
        return self._not_found(api=True)
