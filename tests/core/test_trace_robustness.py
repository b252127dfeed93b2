"""The event log is a trust boundary: hostile bytes get a typed error.

``events.jsonl`` is read back by ``epg trace`` / ``epg metrics``, by
``epg resume`` (which appends to it) and by the dashboard's live
follower.  All three go through one reader, so whatever bytes sit in
the file -- arbitrary ones, or a real log with bytes flipped, inserted
or cut -- the batch readers return or raise :class:`TraceError`, resume
raises nothing else -- leaving the file as it was, or appending to a
log the batch readers accept -- and the follower never raises at all.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.dashboard import EventFollower
from repro.errors import TraceError
from repro.observability import (
    EVENTS_NAME,
    SCHEMA_VERSION,
    Tracer,
    chrome_trace,
    derive_metrics,
    read_events,
    render_text,
    validate_events,
)


def _real_log() -> bytes:
    """A log written by the real tracer: every event type, labels,
    nested spans, a resume's second meta line."""
    with tempfile.TemporaryDirectory() as d:
        t = Tracer(d)
        with t.span("suite", category="suite", scale=8):
            t.advance_sim(0.5)
            with t.span("cell:gap/bfs/t32", category="cell",
                        system="gap") as sp:
                t.advance_sim(0.25)
                t.counter("epg_attempts_total", status="completed")
                t.observe("epg_kernel_seconds", 0.25, system="gap")
                t.gauge("epg_serve_inflight", 2)
                sp.set(status="completed")
        t.close()
        t = Tracer(d, resume=True)
        with t.span("cell:gap/sssp/t32", category="cell"):
            t.advance_sim(1.0)
            t.counter("epg_retries_total", 2.0, cell="gap/sssp/t32")
        t.close()
        return (Path(d) / EVENTS_NAME).read_bytes()


REAL_LOG = _real_log()

#: Bytes that change what JSON means, beside arbitrary ones.
_TOKENS = [b'"', b"-", b"\n", b"{", b"[", b"]", b"null", b'"x"', b"1e999",
           b"\xff", b"0", b",", b":", b"NaN", b"true"]


@st.composite
def _mutated_logs(draw) -> bytes:
    data = bytearray(REAL_LOG)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "insert", "delete", "cut"]))
        if op == "set" and i < len(data):
            data[i] = draw(st.integers(0, 255))
        elif op == "insert":
            data[i:i] = draw(st.one_of(st.sampled_from(_TOKENS),
                                       st.binary(min_size=1, max_size=4)))
        elif op == "delete":
            del data[i:i + draw(st.integers(1, 8))]
        else:
            del data[i:]
    return bytes(data)


logs = st.one_of(st.binary(max_size=512), _mutated_logs())


def _write(data: bytes, d: str) -> Path:
    path = Path(d) / EVENTS_NAME
    path.write_bytes(data)
    return path


@given(logs)
@settings(max_examples=300, deadline=None)
def test_batch_reader_returns_or_raises_trace_error(data):
    with tempfile.TemporaryDirectory() as d:
        path = _write(data, d)
        try:
            events = read_events(path)
        except TraceError:
            return
        # What the reader passes, the exporters take without crashing.
        chrome_trace(events)
        for check in (validate_events, derive_metrics, render_text):
            try:
                check(events)
            except TraceError:
                pass


@given(logs, st.integers(0, 600))
@settings(max_examples=300, deadline=None)
def test_follower_never_raises(data, split):
    with tempfile.TemporaryDirectory() as d:
        path = _write(data[:split], d)
        f = EventFollower(path)
        f.poll()
        with path.open("ab") as fh:
            fh.write(data[split:])
        f.poll()
        f.sim_end()
        f.span_count()


@given(logs)
@settings(max_examples=300, deadline=None)
def test_resume_raises_only_trace_error_and_leaves_log(data):
    with tempfile.TemporaryDirectory() as d:
        path = _write(data, d)
        try:
            Tracer(d, resume=True).close()
        except TraceError:
            assert path.read_bytes() == data
        else:
            read_events(path)   # what resume accepts, `epg trace` reads


# ----------------------------------------------------------------------
# A duplicated span id: every line parses, the tree has a cycle
# ----------------------------------------------------------------------
def _span(sid: int, parent: int | None) -> dict:
    return {"type": "span", "id": sid, "parent": parent, "name": f"s{sid}",
            "cat": "cell", "t0_wall": 0.0, "t1_wall": 1.0, "t0_sim": 0.0,
            "t1_sim": 1.0, "attrs": {}}


def _cyclic_run(root: Path) -> Path:
    """A run whose log passes the reader but names span id 1 twice:
    ``{1, null}``, ``{2, parent 1}``, ``{1, parent 2}``."""
    events = [{"type": "meta", "version": SCHEMA_VERSION, "t_sim": 0.0},
              _span(1, None), _span(2, 1), _span(1, 2)]
    trace = root / "run1" / "trace"
    trace.mkdir(parents=True)
    (trace / EVENTS_NAME).write_text(
        "".join(json.dumps(ev) + "\n" for ev in events), encoding="utf-8")
    return root / "run1"


def _cap_memory() -> None:
    """Keep a looping child from taking the machine's memory with it."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


#: ``epg`` in a memory-capped child, for ``subprocess.run`` / ``Popen``.
_EPG = [sys.executable, "-m", "repro.cli"]
_CHILD = dict(env=dict(os.environ,
                       PYTHONPATH=str(Path(repro.__file__).parents[1])),
              preexec_fn=_cap_memory)


def _get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=20) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_trace_rejects_duplicated_span_id(tmp_path):
    run = _cyclic_run(tmp_path)
    proc = subprocess.run([*_EPG, "trace", str(run)], capture_output=True,
                          text=True, timeout=60, **_CHILD)
    assert proc.returncode == 12, proc.stderr
    assert "duplicate span id 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_dashboard_spans_reject_duplicated_span_id(tmp_path):
    """The spans endpoint walks the tree under the server lock; a cycle
    there used to wedge every later request."""
    _cyclic_run(tmp_path)
    log = tmp_path / "stderr.txt"
    with open(log, "w") as stderr:
        proc = subprocess.Popen(
            [*_EPG, "-v", "dash", str(tmp_path), "--port", "0"],
            stdout=subprocess.DEVNULL, stderr=stderr, **_CHILD)
    try:
        deadline = time.monotonic() + 30
        while not (m := re.search(r"dashboard on (http://[^/\s]+)/",
                                  log.read_text())):
            assert proc.poll() is None and time.monotonic() < deadline, \
                log.read_text()
            time.sleep(0.05)
        typed = json.dumps({"error": "TraceError: duplicate span id 1"})
        for route in ("api/run/run1/spans", "run/run1/timeline.svg",
                      "api/run/run1/spans"):
            assert _get(f"{m.group(1)}/{route}") == (422, typed.encode())
        assert _get(f"{m.group(1)}/healthz")[0] == 200
    finally:
        proc.kill()
        proc.wait(timeout=30)
