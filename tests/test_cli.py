"""Tests for the five-command CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import EXIT_BROKEN_PIPE, build_parser, main


def test_systems_command(capsys):
    assert main(["systems"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["gap", "graph500", "graphbig", "graphmat",
                   "powergraph"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_setup(tmp_path, capsys):
    assert main(["setup", "--output", str(tmp_path)]) == 0
    assert "installed systems" in capsys.readouterr().out
    assert (tmp_path / "config.json").exists()


def test_homogenize(tmp_path, capsys):
    assert main(["homogenize", "--output", str(tmp_path),
                 "--scale", "8", "--roots", "2"]) == 0
    out = capsys.readouterr().out
    assert "homogenized kron-scale8" in out
    assert (tmp_path / "datasets" / "kron-scale8"
            / "manifest.json").exists()


def test_full_pipeline_via_subcommands(tmp_path, capsys):
    args = ["--output", str(tmp_path), "--scale", "8", "--roots", "2",
            "--systems", "gap", "graph500", "--algorithms", "bfs"]
    assert main(["run"] + args) == 0
    assert main(["parse"] + args) == 0
    assert (tmp_path / "results.csv").exists()
    assert main(["analyze"] + args) == 0
    out = capsys.readouterr().out
    assert "gap/bfs" in out


def test_all_with_figure(tmp_path, capsys):
    assert main(["all", "--output", str(tmp_path), "--scale", "8",
                 "--roots", "2", "--systems", "gap", "graphmat",
                 "--algorithms", "bfs", "--figure", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "Fig 2" in out


def test_graphalytics_command(tmp_path, capsys):
    assert main(["graphalytics", "--output", str(tmp_path),
                 "--dataset", "dota-league", "--roots", "2"]) == 0
    out = capsys.readouterr().out
    assert "GraphBIG" in out and "PowerGraph" in out and "GraphMat" in out


def test_rejects_unknown_system(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--output", str(tmp_path), "--systems", "ligra"])


def test_feasibility_command(capsys):
    assert main(["feasibility", "--scale", "22",
                 "--time-limit", "100"]) == 0
    out = capsys.readouterr().out
    assert "kron-scale22" in out
    assert "NO (time)" in out      # LCC blows a 100 s budget
    assert "OK" in out


@pytest.mark.parametrize("scale", ["0", "-3"])
def test_feasibility_rejects_a_scale_below_one(capsys, scale):
    assert main(["feasibility", "--scale", scale]) == 2
    err = capsys.readouterr().err
    assert err.startswith("epg: ConfigError: ") and err.count("\n") == 1


def test_closed_stdout_exits_quietly():
    """``epg feasibility | head -1``: a reader that goes away is not an
    error, so no traceback reaches stderr and the exit code is
    128+SIGPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "feasibility", "--scale",
             "22"], stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=120)
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == EXIT_BROKEN_PIPE == 141


def test_viz_command(tmp_path, capsys):
    main(["all", "--output", str(tmp_path), "--scale", "8",
          "--roots", "2", "--systems", "gap", "--algorithms", "bfs"])
    capsys.readouterr()
    assert main(["viz", "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert ".svg" in out
    assert (tmp_path / "figures").is_dir()


def test_compare_command(tmp_path, capsys):
    main(["all", "--output", str(tmp_path), "--scale", "9",
          "--roots", "6", "--systems", "gap", "graphbig",
          "--algorithms", "bfs"])
    capsys.readouterr()
    assert main(["compare", "--output", str(tmp_path),
                 "--algorithm", "bfs", "--pair", "gap", "graphbig"]) == 0
    out = capsys.readouterr().out
    assert "faster" in out
    assert "95% CI" in out


def test_traces_command(tmp_path, capsys):
    from repro.core.config import ExperimentConfig
    from repro.core.experiment import Experiment

    cfg = ExperimentConfig(output_dir=tmp_path, scale=8, n_roots=2,
                           systems=("gap",), algorithms=("bfs",),
                           capture_power_traces=True)
    Experiment(cfg).run_all()
    assert main(["traces", "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count(".svg") == 2


def test_traces_command_without_traces(tmp_path, capsys):
    assert main(["traces", "--output", str(tmp_path)]) == 1


@pytest.mark.parametrize("body", [
    b"t_s,pkg_w,dram_w\n",
    b"t_s,pkg_w,dram_w\n0.0,80.0,16.0\n0.001,80.0\n",
    b"t_s,pkg_w,dram_w\n0.0,eighty,16.0\n",
    b"t_s,pkg_w,dram_w\n0.0,80.0,16.0\n0.0,80.0,16.0\n",
], ids=["header-only", "short-row", "non-numeric", "repeated-timestamp"])
def test_traces_command_rejects_a_malformed_trace(tmp_path, capsys, body):
    (tmp_path / "traces").mkdir()
    (tmp_path / "traces" / "bad.csv").write_bytes(body)
    assert main(["traces", "--output", str(tmp_path)]) == 7
    err = capsys.readouterr().err
    assert err.startswith("epg: PowerMeasurementError: ")
    assert err.count("\n") == 1 and "bad.csv" in err


@pytest.mark.parametrize("command,extra", [
    ("compare", ["--algorithm", "bfs", "--pair", "gap", "graphbig"]),
    ("viz", []),
    ("analyze", []),
])
@pytest.mark.parametrize("damage", ["missing", "directory", "not-utf8"])
def test_unreadable_results_csv_is_a_config_error(tmp_path, capsys,
                                                  command, extra, damage):
    csv = tmp_path / "results.csv"
    if damage == "directory":
        csv.mkdir()
    elif damage == "not-utf8":
        csv.write_bytes(b"system,\xff\xfe\n")
    assert main([command, "--output", str(tmp_path), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("epg: ConfigError: ")
    assert err.count("\n") == 1


def test_verify_command(tmp_path, capsys):
    from repro.core.config import ExperimentConfig
    from repro.core.experiment import Experiment
    from repro.core.provenance import capture

    cfg = ExperimentConfig(output_dir=tmp_path, scale=8, n_roots=2,
                           systems=("gap",), algorithms=("bfs",))
    Experiment(cfg).run_all()
    capture(cfg)
    assert main(["verify", "--output", str(tmp_path)]) == 0
    assert "verified" in capsys.readouterr().out
    (tmp_path / "results.csv").write_text("tampered\n")
    assert main(["verify", "--output", str(tmp_path)]) == 1


@pytest.mark.slow
def test_reproduce_command(tmp_path, capsys):
    assert main(["reproduce", "--output", str(tmp_path), "--scale", "8",
                 "--roots", "2", "--no-svg"]) == 0
    out = capsys.readouterr().out
    assert "REPORT.md" in out
    assert (tmp_path / "REPORT.md").exists()


def test_interrupt_exits_130_with_resume_hint(tmp_path, capsys,
                                              monkeypatch):
    import repro.core.suite as suite_mod

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(suite_mod, "run_paper_suite", interrupted)
    assert main(["reproduce", "--output", str(tmp_path),
                 "--no-svg"]) == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert f"epg resume {tmp_path}" in err


# ----------------------------------------------------------------------
# Trace inspection on an untraced run dir: exit code 12, one line
# ----------------------------------------------------------------------
def test_metrics_without_events_exits_12(tmp_path, capsys):
    (tmp_path / "logs").mkdir()  # a plausible run dir, just untraced
    assert main(["metrics", str(tmp_path)]) == 12
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "TraceError" in err


def test_trace_without_events_exits_12(tmp_path, capsys):
    (tmp_path / "logs").mkdir()
    assert main(["trace", str(tmp_path)]) == 12
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "TraceError" in err


# ----------------------------------------------------------------------
# epg cache ls|gc|verify|clear
# ----------------------------------------------------------------------
@pytest.fixture
def populated_cache(tmp_path):
    import numpy as np

    from repro.cache import ArtifactCache

    cache = ArtifactCache(tmp_path / "cache")
    for i in range(3):
        cache.put_arrays(f"{i:02d}aa{'f' * 28}", "graph:test",
                         {"data": np.full(64, i, dtype=np.int64)})
    return tmp_path / "cache"


def test_cache_ls(populated_cache, capsys):
    assert main(["cache", "ls", "--dir", str(populated_cache)]) == 0
    out = capsys.readouterr().out
    assert "3 entries" in out
    assert "graph:test" in out


def test_cache_verify_clean_and_corrupt(populated_cache, capsys):
    assert main(["cache", "verify", "--dir", str(populated_cache)]) == 0
    assert "3 entries verified" in capsys.readouterr().out
    victim = next((populated_cache / "objects").glob("*/*/data.npy"))
    victim.write_bytes(b"garbage")
    assert main(["cache", "verify", "--dir", str(populated_cache)]) == 1
    out = capsys.readouterr().out
    assert "digest mismatch" in out
    assert "2 kept" in out


def test_cache_gc_and_clear(populated_cache, capsys):
    assert main(["cache", "gc", "--dir", str(populated_cache),
                 "--max-bytes", "600"]) == 0
    out = capsys.readouterr().out
    assert "evicted" in out
    assert main(["cache", "clear", "--dir", str(populated_cache)]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["cache", "ls", "--dir", str(populated_cache)]) == 0
    assert "0 entries" in capsys.readouterr().out


def test_cache_gc_without_budget_exits_13(populated_cache, capsys):
    assert main(["cache", "gc", "--dir", str(populated_cache)]) == 13
    assert "CacheError" in capsys.readouterr().err


def test_cache_on_missing_dir_exits_13(tmp_path, capsys):
    assert main(["cache", "ls", "--dir", str(tmp_path / "nope")]) == 13
    assert "CacheError" in capsys.readouterr().err


def test_cache_max_bytes_flag_rejects_garbage(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["cache", "gc", "--dir", str(tmp_path),
              "--max-bytes", "lots"])


def test_reproduce_with_cache_dir(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["reproduce", "--output", str(tmp_path / "a"),
                 "--scale", "7", "--roots", "2", "--no-svg",
                 "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert (cache / "objects").is_dir()
    assert main(["reproduce", "--output", str(tmp_path / "b"),
                 "--scale", "7", "--roots", "2", "--no-svg",
                 "--cache-dir", str(cache), "--cache-max-bytes",
                 "2G", "--jobs", "4"]) == 0
    capsys.readouterr()
    assert ((tmp_path / "a" / "REPORT.md").read_bytes()
            == (tmp_path / "b" / "REPORT.md").read_bytes())

    def provenance(run):
        doc = json.loads((tmp_path / run / "kron" / "provenance.json")
                         .read_text(encoding="utf-8"))
        doc["config"].pop("output_dir")  # the only inherent difference
        return doc

    assert provenance("a") == provenance("b")


def test_stream_command(tmp_path, capsys):
    out = tmp_path / "stream"
    assert main(["stream", "--output", str(out), "--scale", "8",
                 "--batches", "3", "--batch-edges", "24",
                 "--check", "--trace"]) == 0
    captured = capsys.readouterr().out
    assert "3 batches" in captured
    assert "oracle checks passed" in captured
    csv = out / "stream_results.csv"
    assert csv.is_file()
    assert len(csv.read_text().strip().splitlines()) == 4
    assert main(["trace", str(out), "--validate"]) == 0
    assert "stream" in capsys.readouterr().out


def test_stream_unweighted_excludes_sssp(tmp_path, capsys):
    assert main(["stream", "--output", str(tmp_path / "s"),
                 "--scale", "8", "--unweighted"]) == 2  # ConfigError
    assert "sssp" in capsys.readouterr().err


def test_stream_unweighted_bfs_pagerank(tmp_path, capsys):
    assert main(["stream", "--output", str(tmp_path / "s"),
                 "--scale", "8", "--batches", "2", "--unweighted",
                 "--algorithms", "bfs", "pagerank", "--check"]) == 0
    assert "oracle checks passed" in capsys.readouterr().out
