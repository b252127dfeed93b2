"""The dashboard server over real HTTP: pages, API, safety properties.

Three of these tests are the PR's acceptance criteria verbatim: every
page/route answers while a run is in flight, attaching a dashboard
leaves run artifacts byte-identical, and hostile span names arrive in
the SVG as escaped text.  The service tests run a stub daemon speaking
configurable ``/stats`` schemas to pin the version-rejection behavior.
"""

import contextlib
import hashlib
import json
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.dashboard import (DashConfig, DashboardServer,
                             parse_prometheus_text)
from repro.errors import DashboardError
from repro.observability import Tracer
from repro.service import STATS_SCHEMA_VERSION


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------

@contextlib.contextmanager
def running_dash(**cfg_kwargs):
    cfg = DashConfig(port=0, **cfg_kwargs)
    server = DashboardServer(cfg)
    ready = threading.Event()
    rc: list[int] = []
    thread = threading.Thread(
        target=lambda: rc.append(server.serve_forever(
            install_signal_handlers=False, ready_event=ready)),
        daemon=True)
    thread.start()
    assert ready.wait(30.0), "dashboard never came up"
    assert server._server.request_queue_size == 128
    try:
        yield f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        thread.join(15.0)
    assert rc == [0]


def get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def make_run(root, name="run1", *, hostile=False):
    d = root / name
    tracer = Tracer(d / "trace")
    span_name = "<script>alert(1)</script>" if hostile else "suite"
    with tracer.span(span_name, "suite"):
        tracer.advance_sim(1.0)
        with tracer.span("cell&<b>", "cell"):
            tracer.advance_sim(0.5)
        tracer.counter("epg_cells_total", 1)
        tracer.observe("epg_cell_seconds", 0.5)
    tracer.close()
    return d


def tree_digest(root):
    """Stable digest of every file under ``root`` (path + bytes)."""
    h = hashlib.blake2b(digest_size=16)
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------

def test_nothing_to_watch_is_a_config_error():
    with pytest.raises(DashboardError):
        DashConfig()


def test_missing_root_is_a_config_error(tmp_path):
    with pytest.raises(DashboardError):
        DashConfig(root=tmp_path / "nope")


# ----------------------------------------------------------------------
# Pages and API
# ----------------------------------------------------------------------

def test_every_route_serves_while_run_in_flight(tmp_path):
    make_run(tmp_path)
    with running_dash(root=tmp_path) as base:
        html_routes = ["/", "/run/run1", "/run/run1/metrics",
                       "/service"]
        for route in html_routes:
            status, body = get(base + route)
            assert status == 200, route
            assert b"<!DOCTYPE html>" in body, route

        status, body = get(base + "/run/run1/timeline.svg")
        assert status == 200 and body.startswith(b"<?xml")

        for route in ["/api/runs", "/api/run/run1/spans",
                      "/api/run/run1/metrics", "/api/service",
                      "/healthz"]:
            status, body = get(base + route)
            assert status == 200, route
            json.loads(body)                    # must be valid JSON

        status, payload = get(base + "/api/run/run1/spans")
        data = json.loads(payload)
        assert data["span_count"] == 2
        assert data["slowest"][0]["sim_s"] >= data["slowest"][-1]["sim_s"]

        status, payload = get(base + "/api/run/run1/metrics")
        data = json.loads(payload)
        assert data["totals"]["epg_cells_total"]["value"] == 1.0
        assert data["totals"]["epg_cell_seconds"]["kind"] == "histogram"
        assert len(data["history"]) == 1


def test_mistyped_lines_are_counted_not_served(tmp_path):
    """A string where a number belongs is a corrupt line: the follower
    counts it, and the run's panels keep answering."""
    from repro.dashboard.server import _RunState

    run = make_run(tmp_path)
    log = run / "trace" / "events.jsonl"
    with log.open("a", encoding="utf-8") as fh:
        fh.write(
            '{"type": "span", "id": 90, "parent": null, "name": "bad", '
            '"cat": "cell", "t0_wall": 0.0, "t1_wall": "x", '
            '"t0_sim": 1.5, "t1_sim": 1.5, "attrs": {}}\n'
            '{"type": "counter", "name": "epg_cells_total", '
            '"labels": {}, "inc": "q", "t_sim": 1.5}\n')
    state = _RunState(log, history_limit=8)
    state.poll()
    assert state.follower.malformed == 2
    assert state.totals["epg_cells_total"]["value"] == 1.0
    with running_dash(root=tmp_path) as base:
        for route in ("spans", "metrics"):
            for _ in range(2):          # and on every later poll
                status, body = get(f"{base}/api/run/run1/{route}")
                assert status == 200, (route, body)
        assert json.loads(body)["totals"]["epg_cells_total"][
            "value"] == 1.0
        status, body = get(f"{base}/api/run/run1/spans")
        data = json.loads(body)
        assert data["malformed"] == 2 and data["span_count"] == 2


@pytest.mark.parametrize("first", ["counter", "gauge"])
def test_name_reused_as_observe_is_counted_not_served(tmp_path, first):
    """One metric name logged first as a counter (or gauge) and then as
    an observe has no registry: the clashing event is counted as
    malformed and the panel keeps serving the first kind."""
    from repro.dashboard.server import _RunState

    run = make_run(tmp_path)
    log = run / "trace" / "events.jsonl"
    field = "inc" if first == "counter" else "value"
    with log.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": first, "name": "epg_clash",
                             "labels": {}, field: 3, "t_sim": 1.5}) + "\n")
        fh.write(json.dumps({"type": "observe", "name": "epg_clash",
                             "labels": {}, "value": 0.5,
                             "t_sim": 1.5}) + "\n")
    state = _RunState(log, history_limit=8)
    state.poll()
    assert state.follower.malformed == 1
    assert state.totals["epg_clash"] == {"kind": first, "value": 3.0}
    with running_dash(root=tmp_path) as base:
        status, body = get(f"{base}/api/run/run1/metrics")
        assert status == 200, body
        assert json.loads(body)["totals"]["epg_clash"]["kind"] == first
        status, body = get(f"{base}/api/run/run1/spans")
        assert status == 200, body
        assert json.loads(body)["malformed"] == 1


def test_unknown_run_and_traversal_are_404(tmp_path):
    make_run(tmp_path)
    with running_dash(root=tmp_path) as base:
        for route in ["/run/ghost", "/api/run/ghost/spans",
                      "/api/run/..%2F..%2Fetc/spans", "/nope",
                      "/run/run1/other"]:
            status, _ = get(base + route)
            assert status == 404, route


def test_dashboard_is_read_only(tmp_path):
    """Polling every route must leave the run dir byte-identical."""
    make_run(tmp_path)
    before = tree_digest(tmp_path)
    with running_dash(root=tmp_path) as base:
        for route in ["/", "/run/run1", "/run/run1/timeline.svg",
                      "/api/runs", "/api/run/run1/spans",
                      "/api/run/run1/metrics", "/api/service"]:
            get(base + route)
            get(base + route)           # twice: history sampling too
    assert tree_digest(tmp_path) == before


def test_hostile_span_names_arrive_escaped(tmp_path):
    make_run(tmp_path, hostile=True)
    with running_dash(root=tmp_path) as base:
        status, svg = get(base + "/run/run1/timeline.svg")
        assert status == 200
        assert b"<script>" not in svg
        assert b"&lt;script&gt;" in svg
        # The nested cell's & and < went through escaping too.
        assert b"cell&<b>" not in svg
        assert b"cell&amp;&lt;b&gt;" in svg


def test_tail_follow_over_http(tmp_path):
    """Spans appended after the first poll appear on the next one."""
    d = tmp_path / "live"
    tracer = Tracer(d / "trace")
    with tracer.span("first", "cell"):
        tracer.advance_sim(1.0)
    tracer.flush()
    with running_dash(root=tmp_path) as base:
        _, payload = get(base + "/api/run/live/spans")
        assert json.loads(payload)["span_count"] == 1

        with tracer.span("second", "cell"):
            tracer.advance_sim(1.0)
        tracer.flush()
        _, payload = get(base + "/api/run/live/spans")
        data = json.loads(payload)
        assert data["span_count"] == 2
        assert data["in_flight"]
    tracer.close()


# ----------------------------------------------------------------------
# Service page vs. a stub daemon
# ----------------------------------------------------------------------

class _StubStats(BaseHTTPRequestHandler):
    stats: dict = {}

    def log_message(self, *a):
        pass

    def do_GET(self):
        if self.path == "/stats":
            body = json.dumps(self.stats).encode()
            ctype = "application/json"
        elif self.path == "/graphs":
            body = json.dumps({"graphs": [
                {"name": "kron-s6", "resident": True}]}).encode()
            ctype = "application/json"
        elif self.path == "/metrics":
            body = (b"# HELP epg_q total\n"
                    b'epg_queries_total{status="200"} 3\n'
                    b'epg_queries_total{status="503"} 1\n'
                    b"epg_latency_seconds_bucket{le=\"1\"} 9\n")
            ctype = "text/plain"
        else:
            self.send_response(404)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@contextlib.contextmanager
def stub_daemon(stats: dict):
    handler = type("H", (_StubStats,), {"stats": stats})
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(10.0)


def _service_snapshot(tmp_path, stats):
    with stub_daemon(stats) as daemon_url:
        with running_dash(root=tmp_path,
                          serve_url=daemon_url) as base:
            _, payload = get(base + "/api/service")
            return json.loads(payload)


def test_service_page_renders_compatible_daemon(tmp_path):
    data = _service_snapshot(tmp_path, {
        "schema_version": STATS_SCHEMA_VERSION,
        "ready": True, "draining": False, "recovered_graphs": 0,
        "admission": {}, "workers": {"n": 2, "quarantined": 0},
        "breakers": {}, "residency": {}})
    assert data["reachable"] and data["compatible"]
    assert data["error"] is None
    assert data["stats"]["ready"] is True
    # /metrics parsed: labels summed, buckets dropped.
    assert data["metrics"]["epg_queries_total"] == 4.0
    assert "epg_latency_seconds_bucket" not in data["metrics"]
    assert len(data["history"]) == 1


def test_incompatible_stats_schema_rejected(tmp_path):
    data = _service_snapshot(
        tmp_path, {"schema_version": STATS_SCHEMA_VERSION + 1,
                   "ready": True})
    assert data["reachable"] and not data["compatible"]
    assert "schema" in data["error"]
    assert data["stats"] is None, "incompatible payloads must not render"


def test_missing_stats_schema_rejected(tmp_path):
    data = _service_snapshot(tmp_path, {"ready": True})
    assert data["reachable"] and not data["compatible"]
    assert "schema_version" in data["error"]
    assert data["stats"] is None


def test_unreachable_daemon_degrades_to_error_panel(tmp_path):
    with running_dash(root=tmp_path,
                      serve_url="http://127.0.0.1:9") as base:
        status, payload = get(base + "/api/service")
        assert status == 200
        data = json.loads(payload)
        assert data["configured"] and not data["reachable"]
        assert "unreachable" in data["error"]


def test_loadgen_report_gains_dash_hint():
    from repro.service import LoadReport

    report = LoadReport()
    report.record(200, 0.01, None)
    report.duration_s = 1.0
    assert "watch live" not in report.summary()
    out = report.summary(dash_url="http://127.0.0.1:8780/")
    assert "watch live: http://127.0.0.1:8780/service" in out


def test_parse_prometheus_text_shapes():
    text = ("# HELP x y\n"
            "a 1\n"
            'a{l="v"} 2\n'
            "b_bucket{le=\"+Inf\"} 7\n"
            "garbage line without value\n"
            "c 2.5\n")
    parsed = parse_prometheus_text(text)
    assert parsed == {"a": 3.0, "c": 2.5}
