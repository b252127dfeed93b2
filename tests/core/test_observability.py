"""Observability layer: spans, metrics, exporters, trace-driven models.

The tentpole claim is that every run is self-explaining: the span tree
mirrors the harness hierarchy (suite > experiment > cell > attempt >
phase), both clocks are recorded, failures carry their reasons, resume
appends instead of clobbering, and the aggregate metrics replayed from
the event log match what the live registry saw.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.suite import run_paper_suite
from repro.errors import TraceError
from repro.observability import (
    EVENTS_NAME,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    derive_metrics,
    read_events,
    render_svg,
    render_text,
    span_events,
    validate_events,
)

pytestmark = pytest.mark.faulty

#: A span whose wall clock and a counter whose increment are strings:
#: complete lines every reader must treat as corrupt.
MISTYPED_LINES = (
    '{"type": "span", "id": 90, "parent": null, "name": "bad", '
    '"cat": "cell", "t0_wall": 0.0, "t1_wall": "x", "t0_sim": 1.0, '
    '"t1_sim": 1.0, "attrs": {}}\n'
    '{"type": "counter", "name": "epg_cells_total", "labels": {}, '
    '"inc": "q", "t_sim": 1.0}\n')


def _config(tmp_path, **kwargs):
    base = dict(output_dir=tmp_path, scale=8, n_roots=2,
                systems=("gap", "graph500"), algorithms=("bfs",))
    base.update(kwargs)
    return ExperimentConfig(**base)


def _run_traced(tmp_path, **cfg_kwargs):
    """One traced experiment; returns (experiment, parsed events)."""
    cfg = _config(tmp_path / "exp", **cfg_kwargs)
    tracer = Tracer(tmp_path / "exp" / "trace")
    exp = Experiment(cfg, tracer=tracer)
    exp.run_all()
    tracer.close()
    return exp, read_events(tmp_path / "exp" / "trace")


def test_no_import_cycle_from_systems_side():
    # repro.systems.base imports the tracer, so importing any
    # systems-first entry point in a fresh interpreter must not drag
    # repro.viz -> repro.core -> repro.systems into a cycle.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.graphalytics"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_totals(self):
        reg = MetricsRegistry()
        c = reg.counter("epg_retries_total")
        c.inc(system="gap")
        c.inc(2, system="gap")
        c.inc(system="graphmat")
        assert c.value(system="gap") == 3
        assert c.total() == 4

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v, op="read")
        assert h.count(op="read") == 3
        text = reg.to_prometheus()
        assert 'lat_bucket{op="read",le="0.1"} 1' in text
        assert 'lat_bucket{op="read",le="1"} 2' in text
        assert 'lat_bucket{op="read",le="+Inf"} 3' in text
        assert 'lat_count{op="read"} 3' in text

    def test_prometheus_escapes_labels(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(reason='say "hi"\nthere')
        assert '\\"hi\\"\\nthere' in reg.to_prometheus()

    def test_prometheus_escapes_backslash_and_help(self):
        reg = MetricsRegistry()
        reg.counter("c", help_="line one\nline two \\ done").inc(
            path="C:\\tmp\nx")
        text = reg.to_prometheus()
        assert "# HELP c line one\\nline two \\\\ done" in text
        assert 'path="C:\\\\tmp\\nx"' in text
        # Every exposition line is a single physical line.
        assert all("\r" not in line for line in text.splitlines())

    def test_hostile_labels_survive_histogram_exposition(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0,)).observe(
            0.5, err='Validation: bad "dist"\n(line 2)')
        text = reg.to_prometheus()
        assert 'err="Validation: bad \\"dist\\"\\n(line 2)"' in text
        assert text.count("\n") == len(text.splitlines())

    def test_json_snapshot_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3, k="v")
        reg.gauge("g").set(1.5)
        snap = json.loads(json.dumps(reg.to_dict()))
        assert snap["c"]["samples"] == [{"labels": {"k": "v"},
                                        "value": 3.0}]
        assert snap["g"]["type"] == "gauge"


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_tracer_is_inert(self, tmp_path):
        t = Tracer()
        assert not t.enabled
        with t.span("anything") as sp:
            sp.set(k=1)          # no-ops, no file, no error
        t.counter("epg_retries_total")
        t.close()

    def test_span_nesting_and_attrs(self, tmp_path):
        t = Tracer(tmp_path)
        with t.span("outer", category="suite"):
            t.advance_sim(1.0)
            with t.span("inner", category="cell", system="gap") as sp:
                t.advance_sim(0.5)
                sp.set(status="completed")
        t.close()
        events = read_events(tmp_path)
        spans = {ev["name"]: ev for ev in span_events(events)}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["attrs"] == {"system": "gap",
                                           "status": "completed"}
        assert spans["inner"]["t0_sim"] == pytest.approx(1.0)
        assert spans["outer"]["t1_sim"] == pytest.approx(1.5)
        validate_events(events)

    def test_exception_marks_span(self, tmp_path):
        t = Tracer(tmp_path)
        with pytest.raises(RuntimeError):
            with t.span("doomed"):
                raise RuntimeError("boom")
        t.close()
        (ev,) = span_events(read_events(tmp_path))
        assert ev["attrs"]["error"] == "RuntimeError"

    def test_bind_clock_splices_timelines(self, tmp_path):
        from repro.machine.clock import SimulatedClock

        t = Tracer(tmp_path)
        t.advance_sim(10.0)
        clock = SimulatedClock(idle_pkg_watts=40, idle_dram_watts=3)
        t.bind_clock(clock)
        clock.advance(2.0)
        assert t.sim_now == pytest.approx(12.0)
        t.close()


# ----------------------------------------------------------------------
# Validation + exporters
# ----------------------------------------------------------------------
class TestExport:
    def test_validate_rejects_bad_nesting(self):
        bad = [
            {"type": "span", "id": 1, "parent": 2, "name": "child",
             "cat": "cell", "t0_wall": 0.0, "t1_wall": 1.0,
             "t0_sim": 0.0, "t1_sim": 5.0, "attrs": {}},
            {"type": "span", "id": 2, "parent": None, "name": "parent",
             "cat": "suite", "t0_wall": 0.0, "t1_wall": 1.0,
             "t0_sim": 0.0, "t1_sim": 2.0, "attrs": {}},
        ]
        with pytest.raises(TraceError, match="escapes its parent"):
            validate_events(bad)

    def test_validate_counts_orphans_from_interrupted_run(self):
        # Spans emit at close; a hard kill loses still-open ancestors,
        # so a dangling parent id marks interruption, not corruption.
        span = {"type": "span", "id": 2, "parent": 1, "name": "x",
                "cat": "cell", "t0_wall": 0.0, "t1_wall": 1.0,
                "t0_sim": 0.0, "t1_sim": 1.0, "attrs": {}}
        stats = validate_events([span])
        assert stats["orphans"] == 1

    def test_validate_rejects_backwards_sim_time(self):
        bad = [
            {"type": "span", "id": 1, "parent": None, "name": "a",
             "cat": "cell", "t0_wall": 0.0, "t1_wall": 1.0,
             "t0_sim": 0.0, "t1_sim": 5.0, "attrs": {}},
            {"type": "counter", "name": "c", "labels": {}, "inc": 1.0,
             "t_sim": 2.0},
        ]
        with pytest.raises(TraceError, match="backwards"):
            validate_events(bad)

    def test_read_events_rejects_malformed_json(self, tmp_path):
        (tmp_path / EVENTS_NAME).write_text("{nope\n", encoding="utf-8")
        with pytest.raises(TraceError, match="malformed"):
            read_events(tmp_path)

    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(TraceError):
            read_events(tmp_path)

    def test_read_events_drops_torn_final_line(self, tmp_path):
        # A hard-killed writer leaves a partial line with no trailing
        # newline; the log must stay inspectable.
        (tmp_path / EVENTS_NAME).write_text(
            '{"type": "meta", "version": 1, "resumed": false, '
            '"t_sim": 0.0, "wall_unix": 0.0}\n{"type": "spa',
            encoding="utf-8")
        events = read_events(tmp_path)
        assert len(events) == 1 and events[0]["type"] == "meta"

    def test_tail_events_reports_torn_final_line(self, tmp_path):
        from repro.observability import tail_events

        (tmp_path / EVENTS_NAME).write_text(
            '{"type": "meta", "version": 1, "resumed": false, '
            '"t_sim": 0.0, "wall_unix": 0.0}\n{"type": "spa',
            encoding="utf-8")
        events, truncated = tail_events(tmp_path / EVENTS_NAME)
        assert truncated and len(events) == 1
        # The summary carries the flag so `epg trace --validate` can
        # say "in-flight append" instead of silently dropping bytes.
        stats = validate_events(events, truncated_tail=truncated)
        assert stats["truncated_tail"] is True

    def test_tail_events_strict_rejects_torn_final_line(self, tmp_path):
        from repro.observability import tail_events

        (tmp_path / EVENTS_NAME).write_text(
            '{"type": "meta", "version": 1, "resumed": false, '
            '"t_sim": 0.0, "wall_unix": 0.0}\n{"type": "spa',
            encoding="utf-8")
        with pytest.raises(TraceError, match="truncated final line"):
            tail_events(tmp_path / EVENTS_NAME, strict=True)
        # A cleanly terminated log passes strict mode untouched.
        (tmp_path / EVENTS_NAME).write_text(
            '{"type": "meta", "version": 1, "resumed": false, '
            '"t_sim": 0.0, "wall_unix": 0.0}\n', encoding="utf-8")
        events, truncated = tail_events(tmp_path / EVENTS_NAME,
                                        strict=True)
        assert not truncated and len(events) == 1

    def test_resume_truncates_torn_final_line(self, tmp_path):
        t = Tracer(tmp_path)
        with t.span("work", category="cell"):
            t.advance_sim(1.0)
        t.close()
        log = tmp_path / EVENTS_NAME
        log.write_text(log.read_text(encoding="utf-8") + '{"type": "spa',
                       encoding="utf-8")
        t2 = Tracer(tmp_path, resume=True)
        with t2.span("more", category="cell"):
            t2.advance_sim(1.0)
        t2.close()
        events = read_events(tmp_path)
        assert all(ev.get("type") in ("meta", "span") for ev in events)
        assert validate_events(events)["spans"] == 2

    @pytest.mark.parametrize("bad", [
        "{not json}", "[1,2]", '{"type":"span","id":"x"}'])
    def test_resume_refuses_corrupt_log_untouched(self, tmp_path, bad):
        # Resume reads the log as `epg trace` does: a corrupt complete
        # line is an error before anything is truncated or appended.
        t = Tracer(tmp_path)
        with t.span("work", category="cell"):
            t.advance_sim(1.0)
        t.close()
        log = tmp_path / EVENTS_NAME
        meta, span = log.read_text(encoding="utf-8").splitlines(True)
        log.write_text(meta + bad + "\n" + span + '{"type": "spa',
                       encoding="utf-8")
        before = log.read_bytes()
        with pytest.raises(TraceError):
            Tracer(tmp_path, resume=True)
        assert log.read_bytes() == before

    def test_tail_events_drops_parseable_unterminated_line(self, tmp_path):
        from repro.observability import tail_events

        (tmp_path / EVENTS_NAME).write_text(
            '{"type": "meta", "version": 1, "resumed": false, '
            '"t_sim": 0.0, "wall_unix": 0.0}\n'
            '{"type": "counter", "name": "c", "labels": {}, "inc": 1.0, '
            '"t_sim": 0.0}', encoding="utf-8")
        events, truncated = tail_events(tmp_path / EVENTS_NAME)
        assert truncated
        assert [ev["type"] for ev in events] == ["meta"]

    def test_metric_replay_errors_are_trace_errors(self):
        def metric(kind, name, labels=None, **field):
            return {"type": kind, "name": name, "labels": labels or {},
                    "t_sim": 0.0, **field}

        # A label may share a name with the update's own argument.
        reg = derive_metrics([metric("gauge", "g", {"value": "v"},
                                     value=2.0)])
        assert reg.get("g").value(value="v") == 2.0
        for events in ([metric("counter", "c", inc=-1.0)],
                       [metric("counter", "m", inc=1.0),
                        metric("gauge", "m", value=1.0)]):
            with pytest.raises(TraceError, match="cannot replay"):
                derive_metrics(events)

    def test_chrome_trace_shape(self, tmp_path):
        t = Tracer(tmp_path)
        with t.span("work", category="cell"):
            t.advance_sim(0.25)
        t.counter("epg_retries_total")
        t.close()
        doc = chrome_trace(read_events(tmp_path))
        assert doc["displayTimeUnit"] == "ms"
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs[0]["name"] == "work"
        assert xs[0]["dur"] == pytest.approx(0.25e6)
        assert any(e["ph"] == "C" and e["name"] == "epg_retries_total"
                   for e in doc["traceEvents"])

    def test_derived_metrics_match_live_registry(self, tmp_path):
        t = Tracer(tmp_path)
        t.counter("epg_retries_total", system="gap")
        t.observe("epg_kernel_seconds", 0.2, system="gap",
                  algorithm="bfs")
        t.gauge("epg_progress", 0.5)
        live = t.metrics.to_prometheus()
        t.close()
        replayed = derive_metrics(read_events(tmp_path)).to_prometheus()
        assert replayed == live

    def test_hostile_label_values_round_trip_through_event_log(
            self, tmp_path):
        """Label values carrying quotes, newlines, and backslashes (the
        ``epg_serve_*`` request labels can) survive the events.jsonl
        round trip and come out escaped per the exposition format."""
        hostile = 'bad "quote"\nnew\\line'
        t = Tracer(tmp_path)
        t.counter("epg_serve_requests_total", endpoint="/query",
                  error=hostile)
        t.observe("epg_serve_request_seconds", 0.01, graph=hostile)
        live = t.metrics.to_prometheus()
        t.close()
        replayed = derive_metrics(read_events(tmp_path)).to_prometheus()
        assert replayed == live
        assert 'bad \\"quote\\"\\nnew\\\\line' in replayed
        # No label value may tear an exposition line in two.
        for line in replayed.splitlines():
            assert line.startswith(("#", "epg_serve_"))


# ----------------------------------------------------------------------
# Instrumented pipeline
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_span_hierarchy_of_clean_run(self, tmp_path):
        exp, events = _run_traced(tmp_path)
        validate_events(events)
        spans = span_events(events)
        cats = {ev["cat"] for ev in spans}
        assert {"pipeline", "dataset", "cell", "attempt", "exec",
                "phase"} <= cats
        cells = [ev for ev in spans if ev["cat"] == "cell"]
        assert {ev["name"] for ev in cells} == {
            "cell:gap/bfs/t32", "cell:graph500/bfs/t32"}
        for cell in cells:
            assert cell["attrs"]["status"] == "completed"

    def test_fault_produces_three_sibling_attempt_spans(self, tmp_path):
        """Two forced crashes -> three attempt spans under one cell,
        the first two carrying failure reasons."""
        _, events = _run_traced(tmp_path,
                                fault_spec="gap/bfs/t32:crash:2")
        validate_events(events)
        spans = span_events(events)
        (cell,) = [ev for ev in spans
                   if ev["name"] == "cell:gap/bfs/t32"]
        attempts = sorted(
            (ev for ev in spans if ev["cat"] == "attempt"
             and ev["parent"] == cell["id"]),
            key=lambda ev: ev["attrs"]["retry_index"])
        assert [a["attrs"]["retry_index"] for a in attempts] == [0, 1, 2]
        for failed in attempts[:2]:
            assert failed["attrs"]["status"] == "crash"
            assert "InjectedCrashError" in failed["attrs"][
                "failure_reason"]
        assert attempts[2]["attrs"]["status"] == "ok"
        assert cell["attrs"]["status"] == "completed"
        reg = derive_metrics(events)
        assert reg.get("epg_retries_total").total() == 2
        assert reg.get("epg_attempts_total").value(
            system="gap", algorithm="bfs", status="crash") == 2

    def test_quarantine_counted(self, tmp_path):
        _, events = _run_traced(tmp_path,
                                fault_spec="gap/bfs/t32:crash:3",
                                max_retries=2)
        reg = derive_metrics(events)
        assert reg.get("epg_quarantines_total").total() == 1
        (cell,) = [ev for ev in span_events(events)
                   if ev["name"] == "cell:gap/bfs/t32"]
        assert cell["attrs"]["status"] == "quarantined"

    def test_kernel_phase_spans_sum_to_reported_times(self, tmp_path):
        """Acceptance: per-execution kernel spans sum to the kernel
        times the parse phase reports (the log round-trips them)."""
        exp, events = _run_traced(tmp_path)
        reported = sum(r.value for r in exp.records
                       if r.system == "gap" and r.metric == "time")
        traced = sum(ev["t1_sim"] - ev["t0_sim"]
                     for ev in span_events(events)
                     if ev["name"] == "phase:kernel"
                     and ev["attrs"]["system"] == "gap")
        assert traced == pytest.approx(reported, rel=1e-4)

    def test_resume_appends_event_log(self, tmp_path):
        """Checkpoint-resume extends the same JSONL, never clobbers."""
        cfg_kwargs = dict(fault_spec="gap/bfs/t32:crash:9",
                          max_retries=0)
        exp, events_first = _run_traced(tmp_path, **cfg_kwargs)
        n_first = len(events_first)
        # Re-enter the same experiment dir with resume semantics.
        tracer = Tracer(tmp_path / "exp" / "trace", resume=True)
        cfg = _config(tmp_path / "exp", **cfg_kwargs)
        exp2 = Experiment(cfg, tracer=tracer)
        exp2.run()
        tracer.close()
        events = read_events(tmp_path / "exp" / "trace")
        assert len(events) > n_first
        assert events[:n_first] == events_first     # append, not clobber
        metas = [ev for ev in events if ev["type"] == "meta"]
        assert [m["resumed"] for m in metas] == [False, True]
        validate_events(events)                     # still monotonic
        # Completed cells were skipped via the checkpoint...
        reg = derive_metrics(events)
        assert reg.get("epg_checkpoint_hits_total").value(
            cell="graph500/bfs/t32") == 1

    def test_phase_timer_closing_line_always_emitted(self, caplog):
        import logging

        from repro.logging_util import phase_timer

        with caplog.at_level(logging.INFO, logger="repro.pipeline"):
            with phase_timer("good"):
                pass
            with pytest.raises(ValueError):
                with phase_timer("bad"):
                    raise ValueError()
        messages = [r.getMessage() for r in caplog.records]
        assert any("good: done in" in m for m in messages)
        assert any("bad: failed after" in m for m in messages)

    def test_phase_timer_records_span(self, tmp_path):
        from repro.logging_util import phase_timer

        t = Tracer(tmp_path)
        with phase_timer("homogenize", tracer=t):
            t.advance_sim(0.1)
        t.close()
        (ev,) = span_events(read_events(tmp_path))
        assert ev["name"] == "homogenize" and ev["cat"] == "pipeline"


# ----------------------------------------------------------------------
# Suite + CLI surface
# ----------------------------------------------------------------------
class TestSuiteAndCli:
    @pytest.mark.slow
    def test_traced_suite_and_cli(self, tmp_path, capsys):
        out = tmp_path / "suite"
        run_paper_suite(out, scale=8, n_roots=2, render_svg=False,
                        fault_spec="gap/bfs/t32:crash:9", max_retries=1,
                        trace=True)
        trace_dir = out / "trace"
        events = read_events(trace_dir)
        validate_events(events)
        # Exported artifacts.
        doc = json.loads((trace_dir / "trace.json").read_text())
        assert doc["traceEvents"]
        prom = (trace_dir / "metrics.prom").read_text()
        assert "epg_retries_total" in prom
        assert "epg_quarantines_total" in prom
        assert (trace_dir / "metrics.json").exists()
        # REPORT.md grew an Observability section.
        report = (out / "REPORT.md").read_text()
        assert "## Observability" in report
        assert "trace/trace.json" in report
        assert "<h2>Observability</h2>" in (out / "report.html"
                                            ).read_text()
        # epg metrics replays the same snapshot the suite wrote.
        assert main(["metrics", str(out)]) == 0
        assert capsys.readouterr().out == prom
        # epg trace --validate accepts the log.
        assert main(["trace", str(out), "--validate"]) == 0
        assert "valid" in capsys.readouterr().out
        # epg trace prints the span tree.
        assert main(["trace", str(out), "--depth", "1"]) == 0
        assert "suite" in capsys.readouterr().out

    @pytest.mark.slow
    def test_untraced_suite_writes_no_trace(self, tmp_path):
        out = tmp_path / "suite"
        run_paper_suite(out, scale=8, n_roots=2, render_svg=False)
        assert not (out / "trace").exists()
        report = (out / "REPORT.md").read_text()
        assert "## Observability" not in report

    def test_metrics_cli_errors_cleanly(self, tmp_path, capsys):
        rc = main(["metrics", str(tmp_path)])
        assert rc == 12      # TraceError exit code
        assert "TraceError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["trace"], ["trace", "--validate"], ["trace", "--chrome"],
        ["metrics"]], ids=["trace", "validate", "chrome", "metrics"])
    def test_mistyped_fields_exit_cleanly(self, tmp_path, argv):
        import subprocess
        import sys
        from pathlib import Path

        import repro

        t = Tracer(tmp_path / "trace")
        with t.span("work", category="cell"):
            t.advance_sim(1.0)
        t.close()
        with (tmp_path / "trace" / EVENTS_NAME).open(
                "a", encoding="utf-8") as fh:
            fh.write(MISTYPED_LINES)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", argv[0], str(tmp_path),
             *argv[1:]],
            capture_output=True, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(repro.__file__).parents[1])})
        assert proc.returncode == 12, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "TraceError" in proc.stderr

    def test_timeline_renderers(self, tmp_path):
        _, events = _run_traced(tmp_path)
        text = render_text(events)
        assert "cell:gap/bfs/t32" in text
        svg = render_svg(events, tmp_path / "timeline.svg")
        assert svg.startswith("<?xml") and "<rect" in svg
        assert (tmp_path / "timeline.svg").exists()
