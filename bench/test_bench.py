"""The benchmark's own test: ``python -m pytest bench -q``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  Runs
``bench/run.py --smoke --trace`` twice with one seed -- all five
workloads at toy size through the same code paths and checks as a full
run -- and holds the output to ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts that must repeat exactly for one seed (README, "exact").
EXACT = (
    "datasets.bytes_written", "systems.load_calls", "systems.kernel_calls",
    "systems.edges_examined", "graph.frontier.gather_edges",
    "graph.scratch.reuse", "shard.rounds", "shard.bytes_exchanged",
    "shard.cut_edges", "service.shed_total",
    "algorithms.incremental.bfs_resettled",
    "algorithms.incremental.sssp_resettled",
    "algorithms.incremental.pagerank_sweeps",
)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two ``--smoke --trace`` runs: [(record, stdout, seconds), ...]."""
    runs = []
    for i in range(2):
        out = tmp_path_factory.mktemp("bench") / f"smoke{i}.json"
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--smoke", "--trace", "--seed", "7",
             "--out", str(out)],
            cwd=ROOT, text=True, stdout=subprocess.PIPE, timeout=600)
        elapsed = time.monotonic() - t0
        assert proc.returncode == 0, proc.stdout
        runs.append((json.loads(out.read_text("utf-8")), proc.stdout,
                     elapsed))
    return runs


def test_smoke_is_quick(smoke_runs):
    # Untraced + traced together; the untraced half alone is ~ a third.
    assert all(seconds < 60 for _, _, seconds in smoke_runs)


def test_every_declared_metric_is_reported_with_its_unit(smoke_runs):
    record, _, _ = smoke_runs[0]
    for kind in ("end_to_end", "per_layer"):
        for workload in WORKLOADS:
            got = record["workloads"][workload][kind]["metrics"]
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            assert {n: m["unit"] for n, m in got.items()} == want
            for name in got:
                assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


def test_every_per_layer_metric_is_crossed_by_some_workload(smoke_runs):
    record, _, _ = smoke_runs[0]
    never_zero_somewhere = set()
    for workload in WORKLOADS:
        metrics = record["workloads"][workload]["per_layer"]["metrics"]
        never_zero_somewhere |= {n for n, m in metrics.items()
                                 if m["value"] != 0}
    # The two that read 0 on a healthy run at this load.
    allowed_zero = {"service.shed_total", "service.shared_graph_fail_frac"}
    if (record["fingerprint"]["cores"] or 1) < 2:
        allowed_zero.add("shard.speedup_vs_serial")
    missing = {m["name"] for m in SPEC["per_layer"]} - never_zero_somewhere
    assert missing <= allowed_zero


def test_end_to_end_metrics_are_never_zero(smoke_runs):
    record, _, _ = smoke_runs[0]
    for workload in WORKLOADS:
        run = record["workloads"][workload]["end_to_end"]
        assert all(m["value"] > 0 for m in run["metrics"].values()), run
        assert run["notes"]["latency_samples"] >= 1


def test_all_checks_pass(smoke_runs):
    for record, _, _ in smoke_runs:
        for workload in WORKLOADS:
            for kind in ("end_to_end", "per_layer"):
                run = record["workloads"][workload][kind]
                assert run["correct"] and run["failed"] == 0, run["problems"]
                assert run["attempted"] >= 1


def test_self_times_sum_to_at_most_wall(smoke_runs):
    record, _, _ = smoke_runs[0]
    for workload in WORKLOADS:
        run = record["workloads"][workload]["per_layer"]
        total = sum(run["self_s"].values())
        assert 0 < total <= run["span_wall_s"] * (1 + 1e-9), workload


def test_exact_counts_repeat(smoke_runs):
    first, second = (r for r, _, _ in smoke_runs)
    for workload in WORKLOADS:
        a = first["workloads"][workload]["per_layer"]["metrics"]
        b = second["workloads"][workload]["per_layer"]["metrics"]
        for name in EXACT:
            assert a[name]["value"] == b[name]["value"], (workload, name)
    sha = [r["workloads"]["reproduce-cold"]["end_to_end"]["notes"]
           ["report_sha256"] for r in (first, second)]
    assert sha[0] == sha[1] and len(sha[0]) == 64


def test_fingerprint(smoke_runs):
    record, stdout, _ = smoke_runs[0]
    fp = record["fingerprint"]
    assert {"cores", "cpu", "python", "numpy", "scipy", "commit", "seed",
            "smoke"} <= set(fp)
    assert fp["seed"] == 7 and fp["smoke"] is True
    assert "fingerprint:" in stdout


def test_driver_contract_last_line():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "stream-replay", "--seed",
         "3", "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, text=True, stdout=subprocess.PIPE, timeout=300)
    assert proc.returncode == 0
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
