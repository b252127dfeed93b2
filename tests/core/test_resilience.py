"""Resilient suite execution: faults, retries, checkpoints, salvage.

The paper's harness survives benchmarking reality -- crashing runs,
hangs at high thread counts, half-written logs.  These tests drive the
same reality through the reproduction on purpose, via the seeded
:class:`FaultInjector`, and check that every failure degrades instead
of destroying: retries recover transients, quarantine contains
permanent failures, checkpoints make interruption cheap, and the log
parser salvages what is salvageable.
"""

import dataclasses
import json
import threading

import pytest

from repro.cli import main
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.logs import LogWriter, parse_all_logs, parse_log
from repro.core.runner import Runner
from repro.core.suite import resume_paper_suite, run_paper_suite
from repro.errors import (
    CheckpointError,
    ConfigError,
    LogParseError,
)
from repro.ioutil import atomic_write_text
from repro.resilience import (
    FaultInjector,
    RetryPolicy,
    SuiteCheckpoint,
    parse_fault_spec,
    request_drain,
    supervisor,
)

pytestmark = pytest.mark.faulty


def _config(tmp_path, **kwargs):
    base = dict(output_dir=tmp_path, scale=8, n_roots=2,
                systems=("gap", "graph500"), algorithms=("bfs",))
    base.update(kwargs)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------------
# Fault spec + injector
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_clauses(self):
        rules = parse_fault_spec(
            "gap/bfs/t32:crash:2; graphmat/*/*:hang; */bfs/*:corrupt@0.25")
        assert len(rules) == 3
        assert rules[0].threads == 32 and rules[0].attempts == 2
        assert rules[1].kind == "hang" and rules[1].threads is None
        assert rules[2].probability == 0.25

    @pytest.mark.parametrize("bad", [
        "gap/bfs:crash",            # cell not 3 components
        "gap/bfs/t32:explode",      # unknown kind
        "gap/bfs/x32:crash",        # bad threads
        "gap/bfs/t32:crash@1.5",    # probability out of range
        "gap/bfs/t32:crash:0",      # count < 1
        "",                         # no clauses
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigError):
            parse_fault_spec(bad)

    def test_config_validates_fault_spec(self, tmp_path):
        with pytest.raises(ConfigError):
            _config(tmp_path, fault_spec="nonsense")

    def test_same_seed_same_faults(self):
        """Probabilistic faults are a pure function of (seed, identity)."""
        spec = "*/bfs/*:crash@0.5"
        a = FaultInjector(7, spec)
        b = FaultInjector(7, spec)
        cells = [("gap", "bfs", t, k) for t in (1, 32) for k in range(10)]
        da = [a.fault_for(*c) for c in cells]
        db = [b.fault_for(*c) for c in cells]
        assert da == db
        assert any(f is not None for f in da)
        assert any(f is None for f in da)

    def test_different_seed_different_faults(self):
        spec = "*/bfs/*:crash@0.5"
        cells = [("gap", "bfs", 32, k) for k in range(32)]
        da = [FaultInjector(7, spec).fault_for(*c) is None for c in cells]
        db = [FaultInjector(8, spec).fault_for(*c) is None for c in cells]
        assert da != db

    def test_count_limits_attempts(self):
        inj = FaultInjector(1, "gap/bfs/t32:crash:2")
        assert inj.fault_for("gap", "bfs", 32, 0) is not None
        assert inj.fault_for("gap", "bfs", 32, 1) is not None
        assert inj.fault_for("gap", "bfs", 32, 2) is None
        assert inj.fault_for("gap", "bfs", 16, 0) is None   # wrong cell


# ----------------------------------------------------------------------
# Retry / quarantine through the pipeline
# ----------------------------------------------------------------------
class TestRetryAndQuarantine:
    def test_retry_then_succeed(self, tmp_path):
        cfg = _config(tmp_path, fault_spec="gap/bfs/t32:crash:2",
                      max_retries=3)
        exp = Experiment(cfg)
        analysis = exp.run_all()
        oc = next(o for o in exp.cell_outcomes if o.cell == "gap/bfs/t32")
        assert oc.status == "completed"
        statuses = [a.status for a in oc.attempts]
        assert statuses == ["crash", "crash", "ok"]
        # Failed attempts record a backoff; the final success does not.
        assert all(a.backoff_s > 0 for a in oc.attempts[:2])
        assert oc.attempts[2].backoff_s is None
        # Exponential: second nominal backoff is ~2x the first (jittered).
        assert oc.attempts[1].backoff_s > oc.attempts[0].backoff_s
        # The recovered cell's records are present and intact.
        assert "gap" in {r.system for r in analysis.records}

    def test_quarantine_after_exhaustion(self, tmp_path):
        cfg = _config(tmp_path, fault_spec="gap/bfs/t32:crash",
                      max_retries=1)
        exp = Experiment(cfg)
        analysis = exp.run_all()     # must not raise
        assert [o.cell for o in exp.quarantined] == ["gap/bfs/t32"]
        oc = exp.quarantined[0]
        assert len(oc.attempts) == 2
        assert all(a.status == "crash" for a in oc.attempts)
        # Downstream tolerates the hole like the paper tolerates
        # PowerGraph-without-BFS.
        assert {r.system for r in analysis.records} == {"graph500"}
        ck = SuiteCheckpoint.load_or_create(tmp_path, cfg)
        assert ck.get("gap/bfs/t32").status == "quarantined"

    def test_hang_records_timeout_at_deadline(self, tmp_path):
        cfg = _config(tmp_path, fault_spec="gap/bfs/t32:hang",
                      max_retries=0, cell_timeout_s=5.0)
        exp = Experiment(cfg)
        exp.setup()
        exp.homogenize()
        exp.run()
        (oc,) = exp.quarantined
        assert oc.attempts[0].status == "timeout"
        assert oc.attempts[0].duration_s == pytest.approx(5.0)
        assert "CellTimeoutError" in oc.attempts[0].error

    def test_attempt_log_deterministic(self, tmp_path_factory):
        """Same seed + same fault spec => identical attempt ledgers."""
        def attempts(d):
            cfg = _config(d, fault_spec="gap/bfs/t32:crash:2",
                          max_retries=2)
            exp = Experiment(cfg)
            exp.setup()
            exp.homogenize()
            exp.run()
            return [o.to_dict() for o in exp.cell_outcomes]

        a = attempts(tmp_path_factory.mktemp("a"))
        b = attempts(tmp_path_factory.mktemp("b"))
        assert a == b


# ----------------------------------------------------------------------
# Drain (graceful shutdown) x retry interaction
# ----------------------------------------------------------------------
class TestDrainQuarantine:
    """A cell that fails while the process is draining must quarantine
    immediately -- and exactly once -- instead of burning retries the
    process no longer has.  Each test drains a fresh process-wide flag
    that monkeypatch puts back afterwards."""

    @pytest.fixture(autouse=True)
    def fresh_drain_flag(self, monkeypatch):
        monkeypatch.setattr(supervisor, "_DRAIN", threading.Event())

    def test_drain_mid_retry_quarantines_exactly_once(
            self, tmp_path, monkeypatch):
        from repro.core.report import format_failures_section
        from repro.observability import Tracer

        cfg = _config(tmp_path, fault_spec="gap/bfs/t32:crash",
                      max_retries=3)
        tracer = Tracer(tmp_path / "trace")
        exp = Experiment(cfg, tracer=tracer)

        # The drain arrives *during* the first attempt, as SIGTERM would.
        real = Runner.run_system_algorithm

        def run_and_drain(self, system, algorithm, n_threads, **kw):
            if system == "gap":
                request_drain()
            return real(self, system, algorithm, n_threads, **kw)

        monkeypatch.setattr(Runner, "run_system_algorithm", run_and_drain)
        exp.run_all()

        (oc,) = exp.quarantined
        assert oc.cell == "gap/bfs/t32"
        assert oc.status == "quarantined"
        # Only the in-flight attempt was spent; no backoff scheduled.
        assert len(oc.attempts) == 1
        assert oc.attempts[0].backoff_s is None
        # Counted exactly once in metrics -- no retries, one quarantine.
        assert tracer.metrics.get("epg_quarantines_total").total() == 1
        assert tracer.metrics.get("epg_retries_total") is None
        # And exactly once in the REPORT failure ledger.
        ledger = format_failures_section(
            {"exp": list(exp.cell_outcomes)})
        assert ledger.count("`exp:gap/bfs/t32` **quarantined**") == 1
        assert ledger.count("quarantined") == 1
        # The checkpoint agrees: one quarantined cell, no double entry.
        ck = SuiteCheckpoint.load_or_create(tmp_path, cfg)
        assert [c for c, e in ck.cells.items()
                if e.status == "quarantined"] == ["gap/bfs/t32"]

    def test_predrained_supervisor_spends_single_attempt(self, tmp_path):
        cfg = _config(tmp_path, fault_spec="gap/bfs/t32:crash:2",
                      max_retries=3)
        exp = Experiment(cfg)
        request_drain()
        exp.run_all()
        # Without drain this cell recovers on attempt 3
        # (test_retry_then_succeed); draining forfeits the retries.
        (oc,) = exp.quarantined
        assert oc.cell == "gap/bfs/t32"
        assert len(oc.attempts) == 1


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_rerun_does_zero_new_work(self, tmp_path, monkeypatch):
        cfg = _config(tmp_path)
        first = Experiment(cfg)
        first.setup()
        first.homogenize()
        paths = first.run()

        def bomb(self, *args, **kwargs):
            raise AssertionError("completed cell re-executed")

        monkeypatch.setattr(Runner, "run_system_algorithm", bomb)
        again = Experiment(cfg)
        again.setup()
        again.homogenize()
        assert again.run() == paths
        assert [o.status for o in again.cell_outcomes] == [
            "completed", "completed"]

    def test_config_change_resets_checkpoint(self, tmp_path):
        cfg = _config(tmp_path)
        Experiment(cfg).run_all()
        cfg2 = dataclasses.replace(cfg, algorithms=("bfs", "sssp"))
        exp = Experiment(cfg2)
        exp.run_all()
        cells = {o.cell for o in exp.cell_outcomes}
        assert "gap/sssp/t32" in cells

    def test_corrupt_checkpoint_raises(self, tmp_path):
        cfg = _config(tmp_path)
        (tmp_path / "checkpoint.json").write_text("{not json", "utf-8")
        exp = Experiment(cfg)
        exp.setup()
        exp.homogenize()
        with pytest.raises(CheckpointError):
            exp.run()

    @pytest.mark.slow
    def test_interrupted_suite_resumes_byte_identical(
            self, tmp_path_factory, monkeypatch):
        """Kill a suite partway; --resume must reproduce the exact
        REPORT.md of an uninterrupted run (same seed)."""
        params = dict(scale=8, n_roots=2, render_svg=False)
        clean = tmp_path_factory.mktemp("clean")
        run_paper_suite(clean, **params)
        reference = (clean / "REPORT.md").read_bytes()

        interrupted = tmp_path_factory.mktemp("interrupted")
        real = Runner.run_system_algorithm
        calls = {"n": 0}

        def dying(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 7:
                raise KeyboardInterrupt
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Runner, "run_system_algorithm", dying)
        with pytest.raises(KeyboardInterrupt):
            run_paper_suite(interrupted, **params)
        monkeypatch.setattr(Runner, "run_system_algorithm", real)

        report = resume_paper_suite(interrupted)
        assert report.read_bytes() == reference

    def test_resume_without_manifest_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            resume_paper_suite(tmp_path)


# ----------------------------------------------------------------------
# Degraded suite + report ledger
# ----------------------------------------------------------------------
class TestDegradedSuite:
    @pytest.mark.slow
    def test_permanent_fault_quarantines_and_reports(self, tmp_path):
        """Acceptance: a permanently crashing cell leaves the suite
        complete, quarantined, and named in the Failures section."""
        report = run_paper_suite(tmp_path, scale=8, n_roots=2,
                                 render_svg=False,
                                 fault_spec="gap/bfs/t32:crash",
                                 max_retries=1)
        text = report.read_text()
        assert "## Failures and retries" in text
        assert "gap/bfs/t32" in text
        assert "quarantined" in text
        assert "backoff" in text
        assert SuiteCheckpoint.scan_quarantined(tmp_path)

    @pytest.mark.slow
    def test_clean_suite_reports_no_failures(self, tmp_path):
        report = run_paper_suite(tmp_path, scale=8, n_roots=2,
                                 render_svg=False)
        text = report.read_text()
        assert "## Failures and retries" in text
        assert "no retries were needed" in text


# ----------------------------------------------------------------------
# Corrupt-log salvage
# ----------------------------------------------------------------------
class TestLogSalvage:
    def _write_gap_log(self, directory, n=3):
        w = LogWriter("gap", "kron-scale8", 32, "bfs")
        w.native(read=0.1, build=0.2)
        for i in range(n):
            w.native(root=i, trial=0, time=0.01 * (i + 1))
        return w.write(directory / "gap" / "bfs-t32.log")

    def test_salvages_around_headerless_file(self, tmp_path):
        good = self._write_gap_log(tmp_path)
        bad = tmp_path / "gap" / "bfs-t16.log"
        bad.write_text("no header here\nTrial Time: 0.5\n", "utf-8")
        problems: list[LogParseError] = []
        records = parse_all_logs(tmp_path, problems=problems)
        assert [r for r in records if r.metric == "time"]
        assert len(problems) == 1
        err = problems[0]
        assert err.path == str(bad)
        assert err.line_no == 1
        assert err.line == "no header here"
        assert good.exists()

    def test_error_context_in_message(self, tmp_path):
        bad = tmp_path / "x.log"
        bad.write_text("garbage line\n", "utf-8")
        with pytest.raises(LogParseError) as info:
            parse_log(bad)
        msg = str(info.value)
        assert str(bad) in msg
        assert "line 1" in msg
        assert "garbage line" in msg

    def test_undecodable_bytes_salvaged(self, tmp_path):
        p = self._write_gap_log(tmp_path)
        raw = p.read_bytes()
        # Smash bytes in the middle of one trial line.
        p.write_bytes(raw.replace(b"Trial: 0 Trial Time",
                                  b"Tri\xff\xfe l Time", 1))
        records = parse_log(p)
        assert [r for r in records if r.metric == "time"]

    def test_all_files_damaged_raises(self, tmp_path):
        (tmp_path / "a.log").write_text("", "utf-8")
        (tmp_path / "b.log").write_text("junk\n", "utf-8")
        with pytest.raises(LogParseError):
            parse_all_logs(tmp_path)

    def test_strict_mode_fails_fast(self, tmp_path):
        self._write_gap_log(tmp_path)
        (tmp_path / "bad.log").write_text("junk\n", "utf-8")
        with pytest.raises(LogParseError):
            parse_all_logs(tmp_path, salvage=False)

    def test_corrupt_fault_still_parses(self, tmp_path):
        """A corrupt-log fault costs at most one record, never the run."""
        cfg = _config(tmp_path, fault_spec="gap/bfs/t32:corrupt")
        exp = Experiment(cfg)
        analysis = exp.run_all()
        oc = next(o for o in exp.cell_outcomes if o.cell == "gap/bfs/t32")
        assert oc.status == "completed"
        assert analysis.records     # parse salvaged whatever survived


# ----------------------------------------------------------------------
# Atomic artifact writes
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_write_and_overwrite(self, tmp_path):
        p = tmp_path / "sub" / "x.json"
        atomic_write_text(p, "one")
        assert p.read_text() == "one"
        atomic_write_text(p, "two")
        assert p.read_text() == "two"
        leftovers = [f for f in p.parent.iterdir() if f.name != "x.json"]
        assert leftovers == []

    def test_json_artifacts_parse(self, tmp_path):
        cfg = _config(tmp_path)
        Experiment(cfg).run_all()
        from repro.core.provenance import capture

        capture(cfg)
        for name in ("config.json", "provenance.json", "checkpoint.json"):
            json.loads((tmp_path / name).read_text())


# ----------------------------------------------------------------------
# CLI exit codes + degraded completion
# ----------------------------------------------------------------------
class TestCliErrorMapping:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        code = main(["parse", "--output", str(tmp_path)])
        assert code == 5     # LogParseError
        err = capsys.readouterr().err
        assert "LogParseError" in err
        assert err.count("\n") == 1   # one line, no traceback

    def test_checkpoint_error_exit_code(self, tmp_path, capsys):
        code = main(["resume", str(tmp_path)])
        assert code == 10    # CheckpointError
        assert "CheckpointError" in capsys.readouterr().err

    def test_degraded_run_exits_zero_with_warning(self, tmp_path, capsys):
        code = main(["run", "--output", str(tmp_path), "--scale", "8",
                     "--roots", "2", "--systems", "gap", "graph500",
                     "--algorithms", "bfs",
                     "--fault-spec", "gap/bfs/t32:crash",
                     "--max-retries", "0"])
        assert code == 0
        err = capsys.readouterr().err
        assert "degraded" in err
        assert "gap/bfs/t32" in err

    def test_retry_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)
