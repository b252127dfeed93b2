"""Tests for the streaming scenario builder and replay harness."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError, ValidationError
from repro.observability import read_events, validate_events
from repro.observability.tracer import Tracer
from repro.streaming import (
    StreamReplay,
    StreamSpec,
    build_scenario,
    write_results_csv,
)


@pytest.fixture(scope="module")
def small_scenario():
    return build_scenario(StreamSpec(scale=7, n_batches=4,
                                     batch_edges=24, weighted=True))


class TestSpecValidation:
    def test_bad_scale(self):
        with pytest.raises(ConfigError, match="scale"):
            StreamSpec(scale=0)

    def test_bad_delete_fraction(self):
        with pytest.raises(ConfigError, match="delete_fraction"):
            StreamSpec(scale=8, delete_fraction=1.5)

    def test_bad_base_fraction(self):
        with pytest.raises(ConfigError, match="base_fraction"):
            StreamSpec(scale=8, base_fraction=1.0)

    def test_bad_batches(self):
        with pytest.raises(ConfigError, match="n_batches"):
            StreamSpec(scale=8, n_batches=0)

    def test_stream_longer_than_tail_rejected(self):
        # scale 6 leaves ~154 tail tuples at base_fraction 0.85.
        with pytest.raises(ConfigError, match="insert tuples"):
            build_scenario(StreamSpec(scale=6, n_batches=100,
                                      batch_edges=64))

    def test_deletes_per_batch_rounding(self):
        spec = StreamSpec(scale=8, batch_edges=10, delete_fraction=0.25)
        assert spec.deletes_per_batch == 2


class TestScenario:
    def test_deterministic(self, small_scenario):
        again = build_scenario(small_scenario.spec)
        assert again.root == small_scenario.root
        assert (again.base.insert_src.tobytes()
                == small_scenario.base.insert_src.tobytes())
        for a, b in zip(again.batches, small_scenario.batches):
            assert a.insert_src.tobytes() == b.insert_src.tobytes()
            assert a.delete_src.tobytes() == b.delete_src.tobytes()
            assert a.insert_weights.tobytes() == b.insert_weights.tobytes()

    def test_batches_symmetrized(self, small_scenario):
        for b in small_scenario.batches:
            pairs = set(zip(b.insert_src.tolist(), b.insert_dst.tolist()))
            assert all((v, u) in pairs for u, v in pairs)

    def test_root_in_range(self, small_scenario):
        assert 0 <= small_scenario.root < small_scenario.n_vertices

    def test_unweighted_scenario_has_no_weights(self):
        sc = build_scenario(StreamSpec(scale=7, n_batches=2,
                                       batch_edges=16))
        assert sc.base.insert_weights is None


class TestReplay:
    def test_checked_replay_passes(self, small_scenario):
        replay = StreamReplay(small_scenario, check=True)
        rows = replay.run()
        assert len(rows) == 4
        assert all(r.checked == 3 for r in rows)
        assert all(r.n_arcs > 0 for r in rows)
        # Counters are filled for every requested algorithm.
        assert all(r.bfs_resettled >= 0 for r in rows)
        assert all(r.sssp_resettled >= 0 for r in rows)
        assert all(r.pagerank_sweeps >= 1 for r in rows)

    def test_algorithm_subset_leaves_sentinels(self, small_scenario):
        rows = StreamReplay(small_scenario,
                            algorithms=("bfs",)).run()
        assert all(r.sssp_resettled == -1 for r in rows)
        assert all(r.pagerank_sweeps == -1 for r in rows)
        assert all(r.bfs_resettled >= 0 for r in rows)

    def test_sssp_requires_weighted(self):
        sc = build_scenario(StreamSpec(scale=7, n_batches=2,
                                       batch_edges=16))
        with pytest.raises(ConfigError, match="weighted"):
            StreamReplay(sc, algorithms=("sssp",))

    def test_unknown_algorithm_rejected(self, small_scenario):
        with pytest.raises(ConfigError, match="unknown"):
            StreamReplay(small_scenario, algorithms=("bfs", "nope"))

    def test_repeated_algorithm_rejected(self, small_scenario):
        # One kernel per name: a repeat would repair every batch twice
        # and report the second repair's counters.
        for algorithms in (("bfs", "bfs"), ("pagerank", "sssp", "pagerank")):
            with pytest.raises(ConfigError, match="repeated"):
                StreamReplay(small_scenario, algorithms=algorithms)

    def test_empty_algorithms_rejected(self, small_scenario):
        with pytest.raises(ConfigError, match="at least one"):
            StreamReplay(small_scenario, algorithms=())

    def test_divergence_raises_validation_error(self, small_scenario):
        replay = StreamReplay(small_scenario, algorithms=("bfs",),
                              check=True)
        replay._init_base()
        # Corrupt the kernel state; the next oracle check must fail.
        replay._kernels["bfs"].level[small_scenario.root] = 99
        with pytest.raises(ValidationError, match="BFS diverged"):
            replay._check_batch(replay._graph.snapshot(), 0)

    def test_deterministic_rows(self, small_scenario):
        r1 = StreamReplay(small_scenario).run()
        r2 = StreamReplay(build_scenario(small_scenario.spec)).run()
        assert r1 == r2


class TestArtifacts:
    def test_csv_roundtrip(self, small_scenario, tmp_path):
        rows = StreamReplay(small_scenario).run()
        path = tmp_path / "stream_results.csv"
        write_results_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(rows) + 1
        assert lines[0].startswith("batch,n_inserted,")
        assert lines[1].split(",")[0] == "0"

    def test_counters_match_pinned_golden(self, tmp_path, capsys):
        # `epg stream --scale 10 --batches 6 --batch-edges 48`, pinned at
        # commit 7352591 (the last one that repaired SSSP one heap pop
        # at a time) and re-derived once since, when a symmetrized batch
        # began giving both arcs of an edge one weight: that moved the
        # SSSP inputs, hence sssp_cut / sssp_orphaned / sssp_resettled,
        # and no other column.  The *_resettled / pagerank_sweeps
        # columns go into REPORT.md, and a repair may get faster but not
        # count otherwise.
        from repro.cli import main

        out = tmp_path / "stream"
        assert main(["stream", "--output", str(out), "--scale", "10",
                     "--batches", "6", "--batch-edges", "48"]) == 0
        capsys.readouterr()
        digest = hashlib.sha256(
            (out / "stream_results.csv").read_bytes()).hexdigest()
        assert digest == ("463b2703cf0ef48441688ec0ed3ed385"
                          "d5baa3c96d3e6c269c5221580a712e44")

    def test_trace_spans_and_metrics(self, small_scenario, tmp_path):
        tracer = Tracer(tmp_path / "trace")
        StreamReplay(small_scenario, tracer=tracer, check=True).run()
        tracer.close()
        events = read_events(tmp_path / "trace")
        stats = validate_events(events)
        assert "stream" in stats["categories"]
        names = {e["name"] for e in events if e.get("type") == "span"}
        assert {"stream", "stream:init", "batch[0]"} <= names
        counters = {e["name"] for e in events
                    if e.get("type") == "counter"}
        assert {"epg_stream_batches_total",
                "epg_stream_arcs_inserted_total",
                "epg_stream_arcs_removed_total",
                "epg_stream_resettled_total",
                "epg_stream_checks_total"} <= counters

    def test_batches_total_matches(self, small_scenario, tmp_path):
        tracer = Tracer(tmp_path / "trace")
        StreamReplay(small_scenario, tracer=tracer).run()
        tracer.close()
        total = sum(e["inc"] for e in read_events(tmp_path / "trace")
                    if e.get("type") == "counter"
                    and e["name"] == "epg_stream_batches_total")
        assert total == len(small_scenario.batches)
