"""The event log is a trust boundary: hostile bytes get a typed error.

``events.jsonl`` is read back by ``epg trace`` / ``epg metrics``, by
``epg resume`` (which appends to it) and by the dashboard's live
follower.  All three go through one reader, so whatever bytes sit in
the file -- arbitrary ones, or a real log with bytes flipped, inserted
or cut -- the batch readers return or raise :class:`TraceError`, resume
raises nothing else -- leaving the file as it was, or appending to a
log the batch readers accept -- and the follower never raises at all.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dashboard import EventFollower
from repro.errors import TraceError
from repro.observability import (
    EVENTS_NAME,
    Tracer,
    chrome_trace,
    derive_metrics,
    read_events,
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
        for check in (validate_events, derive_metrics):
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
