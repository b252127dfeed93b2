"""The event follower against every shape a live log takes.

The contract under test: tailing a file that another process is
appending to, crashing out of, and resuming into must never lose a
complete line, never consume a torn one early, and never count any
span twice -- the resume case runs the *real*
:class:`~repro.observability.tracer.Tracer` so the follower is
exercised against the actual recovery behavior, not a simulation.
"""

import json

from repro.dashboard import EventFollower
from repro.observability import Tracer


def _line(i: int, **extra) -> str:
    ev = {"type": "span", "id": i, "parent": None, "name": f"s{i}",
          "cat": "cell", "t0_sim": float(i), "t1_sim": i + 1.0,
          "t0_wall": 0.0, "t1_wall": 0.1, "attrs": {}}
    ev.update(extra)
    return json.dumps(ev) + "\n"


def test_tail_follow_across_appends(tmp_path):
    log = tmp_path / "events.jsonl"
    log.write_text(_line(1))
    f = EventFollower(log)
    assert [ev["id"] for ev in f.poll()] == [1]
    assert f.poll() == []                       # nothing new: no-op

    with log.open("a") as fh:
        fh.write(_line(2) + _line(3))
    assert [ev["id"] for ev in f.poll()] == [2, 3]
    assert [ev["id"] for ev in f.events] == [1, 2, 3]
    assert f.resets == 0 and f.malformed == 0


def test_crash_mid_write_leaves_partial_pending(tmp_path):
    log = tmp_path / "events.jsonl"
    line2 = _line(2)
    cut = line2.index('"t0') + 3
    log.write_text(_line(1) + line2[:cut])
    f = EventFollower(log)
    assert [ev["id"] for ev in f.poll()] == [1]
    assert f.pending_partial
    # Offset stopped at the newline, not the torn bytes.
    assert f.offset == len(_line(1).encode())

    # The writer finishes the line: the next poll picks up exactly it.
    with log.open("a") as fh:
        fh.write(line2[cut:])
    polled = f.poll()
    assert len(polled) == 1 and polled[0]["id"] == 2
    assert not f.pending_partial
    assert f.span_count() == 2


def test_resume_append_never_double_counts(tmp_path):
    """Follower attached across crash + ``epg resume``: each span once.

    A hard-killed tracer leaves a torn tail; the resumed Tracer
    truncates it in place (same inode) and appends.  The follower was
    already past the complete lines and must treat the resumed log as
    pure append -- no reset, no replay.
    """
    trace_dir = tmp_path / "trace"
    tracer = Tracer(trace_dir)
    with tracer.span("one", "cell"):
        tracer.advance_sim(1.0)
    tracer.flush()
    log = tracer.path

    f = EventFollower(log)
    f.poll()
    first_spans = f.span_count()
    assert first_spans == 1

    # Hard kill mid-write: torn JSON at the tail, no close().
    with log.open("a") as fh:
        fh.write('{"type": "span", "id": 99, "t0_sim"')

    f.poll()                        # sees the torn tail, holds position
    assert f.pending_partial
    assert f.span_count() == first_spans

    resumed = Tracer(trace_dir, resume=True)
    with resumed.span("two", "cell"):
        resumed.advance_sim(1.0)
    resumed.close()

    f.poll()
    names = [ev["name"] for ev in f.events if ev.get("type") == "span"]
    assert names == ["one", "two"]          # each exactly once
    assert f.resets == 0, "resume must look like append, not rewrite"


def test_fresh_run_replaces_log_and_resets(tmp_path):
    trace_dir = tmp_path / "trace"
    tracer = Tracer(trace_dir)
    with tracer.span("old", "cell"):
        tracer.advance_sim(1.0)
    tracer.close()

    f = EventFollower(tracer.path)
    f.poll()
    assert f.span_count() == 1

    # A non-resume Tracer unlinks and recreates: new inode.
    fresh = Tracer(trace_dir)
    with fresh.span("new", "cell"):
        fresh.advance_sim(1.0)
    fresh.close()

    f.poll()
    assert f.resets == 1
    names = [ev["name"] for ev in f.events if ev.get("type") == "span"]
    assert names == ["new"], "stale events must not survive a reset"


def test_same_inode_rewrite_detected_by_shrink(tmp_path):
    log = tmp_path / "events.jsonl"
    log.write_text(_line(1) + _line(2) + _line(3))
    f = EventFollower(log)
    f.poll()
    assert f.span_count() == 3

    with log.open("r+b") as fh:     # truncate below the offset in place
        fh.truncate(len(_line(1).encode()))
    f.poll()
    assert f.resets == 1
    assert f.span_count() == 1


def test_missing_then_created(tmp_path):
    log = tmp_path / "events.jsonl"
    f = EventFollower(log)
    assert f.poll() == []           # absent: quietly empty
    log.write_text(_line(1))
    assert [ev["id"] for ev in f.poll()] == [1]


def test_malformed_complete_line_skipped_and_counted(tmp_path):
    log = tmp_path / "events.jsonl"
    log.write_text(_line(1) + "{not json}\n" + _line(2))
    f = EventFollower(log)
    assert [ev["id"] for ev in f.poll()] == [1, 2]
    assert f.malformed == 1


def test_sim_end_tracks_high_water_mark(tmp_path):
    log = tmp_path / "events.jsonl"
    log.write_text(
        _line(1, t1_sim=4.5)
        + json.dumps({"type": "counter", "name": "c", "labels": {},
                      "inc": 1, "t_sim": 9.0}) + "\n")
    f = EventFollower(log)
    f.poll()
    assert f.sim_end() == 9.0
