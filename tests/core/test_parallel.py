"""Parallel cell scheduler: determinism, resume, and fault handling.

The contract under test is the tentpole invariant: ``--jobs N`` only
changes wall-clock time.  REPORT.md, provenance digests, checkpoints,
and the merged trace (modulo wall-clock fields) are byte-identical at
every job count, an interrupted parallel run resumes to the same
bytes, and seeded fault injection behaves identically under workers.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.logs import parse_all_logs
from repro.core.runner import Runner
from repro.core.suite import run_paper_suite, resume_paper_suite
from repro.errors import ConfigError
from repro.observability import Tracer
from repro.observability.export import read_events, validate_events
from repro.parallel import CellPool, resolve_jobs, run_cell_task
from repro.parallel.worker import CellWorker
from repro.resilience import SuiteCheckpoint, cell_id

PARAMS = dict(scale=8, n_roots=2, render_svg=False)

#: The checkout under test, so CLI subprocesses run *this* tree and not
#: whatever lives at some fixed path.
REPO = Path(__file__).resolve().parents[2]

#: Wall-clock fields are the only legal difference between traces of
#: the same run at different job counts.
WALL_FIELDS = ("t0_wall", "t1_wall", "wall_unix")


def _strip_wall(events):
    return [{k: v for k, v in ev.items() if k not in WALL_FIELDS}
            for ev in events]


@pytest.fixture(scope="module")
def ref_plain(tmp_path_factory):
    """Untraced serial reference run: the bytes every other mode of
    execution must reproduce."""
    out = tmp_path_factory.mktemp("ref-plain")
    report = run_paper_suite(out, jobs=1, **PARAMS)
    return report.read_bytes()


# ----------------------------------------------------------------------
# Unit-level: job resolution and the pool itself
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_default_is_cpu_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_explicit_passthrough(self):
        assert resolve_jobs(3) == 3

    @pytest.mark.parametrize("bad", (0, -1))
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ConfigError):
            resolve_jobs(bad)

    def test_config_validates_jobs(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig(output_dir=tmp_path, jobs=0)

    def test_jobs_excluded_from_digest_inputs(self, tmp_path):
        """``jobs`` is an execution detail: it must not perturb the
        config dict that checkpoints and provenance digest."""
        a = ExperimentConfig(output_dir=tmp_path, jobs=1).to_dict()
        b = ExperimentConfig(output_dir=tmp_path, jobs=8).to_dict()
        assert a == b
        assert "jobs" not in a


class TestCellPool:
    def test_one_job_pool_runs_in_process_at_result(self, tmp_path,
                                                    kron10_dataset):
        """The one-job executor is lazy: ``submit_cell`` runs nothing,
        ``result()`` runs the cell in this process, and closing a pool
        that never forked is safe."""
        cfg = ExperimentConfig(output_dir=tmp_path, scale=10, n_roots=2)
        pids = []
        real = Runner.run_system_algorithm

        def spy(self, *args, **kwargs):
            pids.append(os.getpid())
            return real(self, *args, **kwargs)

        pool = CellPool(1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Runner, "run_system_algorithm", spy)
            with pool.sweep():
                fut = pool.submit_cell(cfg, kron10_dataset,
                                       "gap", "bfs", 32)
                assert pids == []
                outcome, events = fut.result()
        assert pids == [os.getpid()]
        assert outcome.status == "completed" and events == []
        assert pool._processes is None
        pool.close()

    def test_run_cell_task_in_process(self, tmp_path, kron10_dataset):
        """The worker entry point works without a pool: it returns the
        supervised outcome plus the cell's captured trace events."""
        cfg = ExperimentConfig(output_dir=tmp_path, scale=10, n_roots=2)
        outcome, events = run_cell_task(cfg, kron10_dataset,
                                        "gap", "bfs", 32)
        assert outcome.status == "completed"
        assert isinstance(events, list)  # untraced -> empty capture

    def test_shared_pool_never_reuses_a_stale_runner(self, tmp_path):
        """Regression: worker state was keyed on the output directory
        alone, so a second experiment in the same directory and pool
        silently ran on the first one's Runner (and its ``n_roots``).
        One pool-path worker runs both experiments' cells, as a pool
        worker does when it draws cells of both."""
        worker = CellWorker(Tracer.capture_only())

        def roots_per_cell(n_roots):
            cfg = ExperimentConfig(
                output_dir=tmp_path, scale=6, n_roots=n_roots,
                systems=("gap", "graphbig"), algorithms=("bfs", "sssp"))
            SuiteCheckpoint.clear(tmp_path)
            exp = Experiment(cfg)
            exp.setup()
            dataset = exp.homogenize()
            for cell in exp._cells():
                outcome, _ = run_cell_task(cfg, dataset, *cell,
                                           worker=worker)
                assert outcome.status == "completed"
            roots = {}
            for r in parse_all_logs(tmp_path / "logs"):
                if r.metric == "time":
                    roots.setdefault((r.system, r.algorithm),
                                     set()).add(r.root)
            return {len(v) for v in roots.values()}

        try:
            assert roots_per_cell(2) == {2}
            assert roots_per_cell(3) == {3}
        finally:
            worker.close()


# ----------------------------------------------------------------------
# An interrupt inside cell k: what the checkpoint holds afterwards
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", (1, 2))
def test_interrupt_leaves_a_canonical_prefix(tmp_path, jobs):
    """At one job exactly the cells before the interrupted one are
    recorded; at two, a (possibly shorter) prefix of the same order."""
    cfg = ExperimentConfig(
        output_dir=tmp_path, scale=6, n_roots=1, jobs=jobs,
        systems=("gap", "graphbig"), algorithms=("bfs", "sssp"))
    exp = Experiment(cfg)
    exp.setup()
    order = [cell_id(*cell) for cell in exp._cells()]
    k = 2
    real = Runner.run_system_algorithm

    def dying(self, system, algorithm, n_threads, **kwargs):
        if cell_id(system, algorithm, n_threads) == order[k]:
            raise KeyboardInterrupt
        return real(self, system, algorithm, n_threads, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Runner, "run_system_algorithm", dying)
        with pytest.raises(KeyboardInterrupt):
            exp.run()
    done = list(SuiteCheckpoint.load_or_create(tmp_path, cfg).cells)
    assert done == order[:len(done)]
    if jobs == 1:
        assert done == order[:k]
    else:
        assert len(done) <= k


# ----------------------------------------------------------------------
# The tentpole invariant: jobs=1 vs jobs=4, traced
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_jobs_do_not_change_any_bytes(tmp_path_factory):
    serial = tmp_path_factory.mktemp("serial")
    parallel = tmp_path_factory.mktemp("parallel")
    r1 = run_paper_suite(serial, jobs=1, trace=True, **PARAMS)
    r4 = run_paper_suite(parallel, jobs=4, trace=True, **PARAMS)

    assert r4.read_bytes() == r1.read_bytes()
    # Workers write nothing of their own: the one log is the parent's.
    assert not (parallel / "trace" / "workers").exists()

    # Provenance covers config, machine, and the results.csv digest.
    # Only the embedded output_dir path may differ between the runs.
    for sub in ("kron", "scaling"):
        p1 = json.loads((serial / sub / "provenance.json").read_text())
        p4 = json.loads((parallel / sub / "provenance.json").read_text())
        p1["config"].pop("output_dir")
        p4["config"].pop("output_dir")
        assert p4 == p1, f"{sub}/provenance.json differs across jobs"

    # The merged trace is valid and identical modulo wall clocks.
    e1 = read_events(serial / "trace" / "events.jsonl")
    e4 = read_events(parallel / "trace" / "events.jsonl")
    stats = validate_events(e4)  # raises TraceError on any violation
    assert stats["spans"] > 0 and stats["orphans"] == 0
    assert _strip_wall(e4) == _strip_wall(e1)


# ----------------------------------------------------------------------
# Interrupt + resume under workers
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_interrupted_parallel_run_resumes_byte_identical(
        tmp_path_factory, monkeypatch, ref_plain):
    """Kill a jobs=2 run mid-suite (the interrupt surfaces through a
    worker future); resuming -- also parallel -- must reproduce the
    serial reference bytes."""
    out = tmp_path_factory.mktemp("interrupted-par")
    real = Runner.run_system_algorithm

    def dying(self, *args, **kwargs):
        # Workers are forked after the patch, so each inherits it; the
        # counter is per-process, which only varies *where* it dies.
        calls = getattr(dying, "n", 0) + 1
        dying.n = calls
        if calls > 5:
            raise KeyboardInterrupt
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Runner, "run_system_algorithm", dying)
    with pytest.raises(KeyboardInterrupt):
        run_paper_suite(out, jobs=2, **PARAMS)
    monkeypatch.setattr(Runner, "run_system_algorithm", real)

    # Something must have been committed before the interrupt for the
    # resume to be a real partial-continue, not a fresh run.
    assert any((out / sub / "checkpoint.json").exists()
               for sub in ("kron", "dota", "pat", "scaling"))
    report = resume_paper_suite(out, jobs=2)
    assert report.read_bytes() == ref_plain


@pytest.mark.slow
def test_sigkill_then_cli_resume_byte_identical(tmp_path, ref_plain):
    """The acceptance scenario end to end: SIGKILL the ``epg
    reproduce --jobs 2`` process mid-suite, then ``epg resume``."""
    out = tmp_path / "suite"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    cmd = [sys.executable, "-m", "repro.cli", "reproduce",
           "--output", str(out), "--scale", "8", "--roots", "2",
           "--no-svg", "--jobs", "2"]
    # Own session: the SIGKILL under test goes to the leader only, and
    # its two pool workers (which ignore SIGTERM) are swept as a group
    # afterwards instead of outliving the test.
    proc = subprocess.Popen(cmd, cwd=REPO, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)
    deadline = time.monotonic() + 60
    try:
        # Wait until at least one cell has been committed, then kill.
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if (out / "kron" / "checkpoint.json").exists():
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass                # leader reaped and no worker left
        proc.wait()
    if proc.returncode == 0:
        pytest.skip("suite finished before SIGKILL landed")

    assert not (out / "REPORT.md").exists()
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "resume", str(out),
         "--jobs", "2"],
        cwd=REPO, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (out / "REPORT.md").read_bytes() == ref_plain


@pytest.mark.slow
def test_sigterm_checkpoints_and_exits_resume_code(tmp_path, ref_plain):
    """SIGTERM (what schedulers and CI send) must behave like Ctrl-C:
    checkpoint what completed, exit 130 with a resume hint, and leave a
    state ``epg resume`` finishes byte-identically."""
    out = tmp_path / "suite"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    cmd = [sys.executable, "-m", "repro.cli", "reproduce",
           "--output", str(out), "--scale", "8", "--roots", "2",
           "--no-svg", "--jobs", "2"]
    proc = subprocess.Popen(cmd, cwd=REPO, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 60
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if (out / "kron" / "checkpoint.json").exists():
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
    if proc.returncode == 0:
        pytest.skip("suite finished before SIGTERM landed")

    assert proc.returncode == 130, stderr
    assert "epg resume" in stderr
    assert not (out / "REPORT.md").exists()
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "resume", str(out),
         "--jobs", "2"],
        cwd=REPO, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (out / "REPORT.md").read_bytes() == ref_plain


# ----------------------------------------------------------------------
# Fault injection and quarantine behave identically under workers
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fault_injection_under_parallel_matches_serial(
        tmp_path_factory):
    faulty = dict(PARAMS, fault_spec="gap/bfs/t32:crash", max_retries=1)
    ser = tmp_path_factory.mktemp("fault-ser")
    par = tmp_path_factory.mktemp("fault-par")
    r1 = run_paper_suite(ser, jobs=1, **faulty)
    r2 = run_paper_suite(par, jobs=2, **faulty)
    text = r2.read_text()
    assert "gap/bfs/t32" in text and "quarantined" in text
    assert SuiteCheckpoint.scan_quarantined(par)
    assert r2.read_bytes() == r1.read_bytes()
