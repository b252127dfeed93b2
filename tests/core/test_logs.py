"""Native log writer <-> parser round-trips for all five systems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.logs import LogWriter, parse_all_logs, parse_log
from repro.errors import LogParseError


def _values(records, metric):
    return sorted(r.value for r in records if r.metric == metric)


class TestGapLog:
    def test_roundtrip(self, tmp_path):
        w = LogWriter("gap", "kron-scale10", 32, "bfs")
        w.native(read=0.12, build=0.4, root=5, trial=0, time=0.01636)
        w.native(root=9, trial=0, time=0.0171)
        w.power_lines(1.184, 0.27, 0.01636, root=5, trial=0)
        path = w.write(tmp_path / "gap.log")
        records = parse_log(path)
        assert _values(records, "time") == [0.01636, 0.0171]
        assert _values(records, "read") == [0.12]
        assert _values(records, "build") == [0.4]
        times = {(r.root, r.value) for r in records if r.metric == "time"}
        assert (5, 0.01636) in times

    def test_pagerank_iterations(self, tmp_path):
        w = LogWriter("gap", "d", 32, "pagerank")
        w.native(read=0.1, build=0.2, root=-1, trial=0, time=0.075,
                 iterations=22)
        records = parse_log(w.write(tmp_path / "pr.log"))
        assert _values(records, "iterations") == [22.0]

    def test_power_watts_derived(self, tmp_path):
        w = LogWriter("gap", "d", 32, "bfs")
        w.native(root=1, trial=0, time=1.0)
        w.power_lines(pkg_j=72.38, dram_j=16.5, duration_s=1.0,
                      root=1, trial=0)
        records = parse_log(w.write(tmp_path / "p.log"))
        assert _values(records, "pkg_watts")[0] == pytest.approx(
            72.38, rel=1e-6)
        assert _values(records, "dram_watts")[0] == pytest.approx(
            16.5, rel=1e-6)


class TestGraph500Log:
    def test_roundtrip(self, tmp_path):
        w = LogWriter("graph500", "kron-scale14", 32, "bfs")
        w.native(scale=14, edgefactor=16, nbfs=2, build=3.3)
        w.native(trial=0, root=7, time=0.0188)
        w.native(trial=1, root=9, time=0.0190)
        w.native(min=0.0188, mean=0.0189, max=0.0190, teps=1.0e9)
        w.power_lines(100.0, 20.0, 0.6)
        records = parse_log(w.write(tmp_path / "g500.log"))
        assert _values(records, "build") == [3.3]
        assert _values(records, "time") == [0.0188, 0.019]
        roots = {r.root for r in records if r.metric == "time"}
        assert roots == {7, 9}


class TestGraphBigLog:
    def test_roundtrip(self, tmp_path):
        w = LogWriter("graphbig", "dota-league", 32, "pagerank")
        w.native(load=2.6, root=-1, trial=0, time=4.7, iterations=10)
        records = parse_log(w.write(tmp_path / "gbig.log"))
        assert _values(records, "load") == [2.6]
        assert _values(records, "time") == [4.7]
        assert _values(records, "iterations") == [10.0]
        # GraphBIG has no separable build (Sec. III-B).
        assert _values(records, "build") == []


class TestGraphMatLog:
    def test_block_matches_table1_excerpt(self, tmp_path):
        """The exact phase lines of the Table I excerpt parse back."""
        w = LogWriter("graphmat", "dota-league", 32, "pagerank")
        w.native(
            root=-1, trial=0, read=2.65211, load=5.91229,
            init=8.32081e-05, degree=0.0555639, time=0.149445,
            print=0.0641179, deinit=0.00022006)
        path = w.write(tmp_path / "gm.log")
        text = path.read_text()
        assert "Finished file read of dota-league. time: 2.65211" in text
        assert "load graph: 5.91229 sec" in text
        assert "run algorithm 2 (compute PageRank): 0.149445 sec" in text
        records = parse_log(path)
        assert _values(records, "read") == [2.65211]
        assert _values(records, "load") == [5.91229]
        assert _values(records, "time") == [0.149445]
        # Derived construction = load - read (Sec. II arithmetic).
        assert _values(records, "build")[0] == pytest.approx(
            5.91229 - 2.65211)


class TestPowerGraphLog:
    def test_roundtrip(self, tmp_path):
        w = LogWriter("powergraph", "d", 32, "sssp")
        w.native(load=20.0, root=3, trial=0, time=8.9, iterations=15)
        records = parse_log(w.write(tmp_path / "pg.log"))
        assert _values(records, "load") == [20.0]
        assert _values(records, "time") == [8.9]
        assert _values(records, "iterations") == [15.0]


class TestParseErrors:
    def test_empty_log(self, tmp_path):
        p = tmp_path / "x.log"
        p.write_text("")
        with pytest.raises(LogParseError):
            parse_log(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "x.log"
        p.write_text("Trial Time: 0.5\n")
        with pytest.raises(LogParseError):
            parse_log(p)

    def test_unknown_system(self, tmp_path):
        p = tmp_path / "x.log"
        p.write_text("# epg system=ligra dataset=d threads=4 "
                     "algorithm=bfs\nsomething\n")
        with pytest.raises(LogParseError):
            parse_log(p)

    def test_parse_all_requires_logs(self, tmp_path):
        with pytest.raises(LogParseError):
            parse_all_logs(tmp_path)


@given(times=st.lists(st.floats(1e-6, 1e3, allow_nan=False),
                      min_size=1, max_size=20),
       threads=st.integers(1, 72))
@settings(max_examples=40, deadline=None)
def test_gap_roundtrip_property(tmp_path_factory, times, threads):
    """Writer -> parser is lossless for arbitrary trial times."""
    w = LogWriter("gap", "g", threads, "bfs")
    w.native(read=0.1, build=0.2)
    for i, t in enumerate(times):
        w.native(root=i, trial=0, time=t)
    p = tmp_path_factory.mktemp("logs") / "g.log"
    records = parse_log(w.write(p))
    got = sorted(r.value for r in records if r.metric == "time")
    want = sorted(round(t, 5) for t in times)
    assert got == pytest.approx(want, rel=1e-3, abs=1e-5)
    assert all(r.threads == threads for r in records)


def test_graph500_teps_parsed(tmp_path):
    """The spec-mandated harmonic-mean TEPS lands in the records."""
    w = LogWriter("graph500", "kron-scale14", 32, "bfs")
    w.native(scale=14, edgefactor=16, nbfs=1, build=3.3)
    w.native(trial=0, root=7, time=0.0188)
    w.native(min=0.0188, mean=0.0188, max=0.0188, teps=7.1e9)
    records = parse_log(w.write(tmp_path / "teps.log"))
    teps = [r.value for r in records if r.metric == "teps"]
    assert teps == [7.1e9]


# ----------------------------------------------------------------------
# Every dialect round-trips: what a system's writer prints, the parser
# reads back as exactly these records.
# ----------------------------------------------------------------------
_seconds = st.floats(1e-7, 1e4, allow_nan=False)
_executions = st.lists(
    st.tuples(st.integers(-1, 10**6), st.integers(0, 99), _seconds,
              _seconds, _seconds, st.integers(1, 1000)),
    min_size=1, max_size=4, unique_by=lambda e: (e[0], e[1]))


def _expected(system, algorithm, executions, teps):
    """The records each system's log must yield, stated per system."""
    want = []
    at = (-1, 0)
    for i, (root, trial, read, build, t, iters) in enumerate(executions):
        load = read + build
        if system == "gap":
            want += [("read", f"{read:.5f}", *at),
                     ("build", f"{build:.5f}", *at)]
            at = (root, trial)
            want.append(("time", f"{t:.6e}", *at))
            if algorithm == "pagerank":
                want.append(("iterations", f"{iters}", *at))
        elif system in ("graphbig", "powergraph"):
            want.append(("load", f"{load:.5f}", *at))
            at = (root, trial)
            want += [("time", f"{t:.6e}", *at),
                     ("iterations", f"{iters}", *at)]
        elif system == "graphmat":
            at = (root, trial)
            want += [("read", f"{read:.6g}", *at),
                     ("load", f"{load:.6g}", *at),
                     ("time", f"{t:.6g}", *at),
                     ("iterations", f"{iters}", *at)]
            want.append(("build", max(float(f"{load:.6g}")
                                      - float(f"{read:.6g}"), 0.0), *at))
        else:  # graph500: one execution, every search a numbered line
            if i == 0:
                want.append(("build", f"{build:.6e}", -1, 0))
            want.append(("time", f"{t:.6e}", root, i))
    if system == "graph500":
        want.append(("teps", f"{teps:.6e}", -1, 0))
    return sorted((m, float(v), r, t) for m, v, r, t in want)


@given(system=st.sampled_from(
           ["gap", "graph500", "graphbig", "graphmat", "powergraph"]),
       algorithm=st.sampled_from(["bfs", "pagerank", "wcc"]),
       executions=_executions, teps=_seconds)
@settings(max_examples=150, deadline=None)
def test_every_dialect_roundtrips(tmp_path_factory, system, algorithm,
                                  executions, teps):
    w = LogWriter(system, "g", 8, algorithm)
    for i, (root, trial, read, build, t, iters) in enumerate(executions):
        if system == "graph500":
            if i == 0:
                w.native(scale=10, edgefactor=16, nbfs=len(executions),
                         build=build)
            w.native(trial=i, root=root, time=t)
        else:
            w.native(read=read, build=build, load=read + build, root=root,
                     trial=trial, time=t, iterations=iters, init=8.32e-5,
                     degree=0.05 * build, print=1e-6, deinit=2.2e-4)
    if system == "graph500":
        w.native(min=teps, mean=teps, max=teps, teps=teps)
    records = parse_log(w.write(tmp_path_factory.mktemp("d") / "x.log"))
    got = sorted((r.metric, r.value, r.root, r.trial) for r in records)
    assert got == _expected(system, algorithm, executions, teps)
    assert all((r.system, r.dataset, r.threads, r.algorithm)
               == (system, "g", 8, algorithm) for r in records)
