"""Robustness of the log parser against damaged and hostile inputs.

Phase 4 parses whatever the run phase left behind; a truncated disk, a
crashed system, or a hand-edited log must produce a clean error or a
partial parse -- never a wrong number or an unhandled exception.
"""

import pytest

from repro.core.logs import LogWriter, parse_log
from repro.errors import LogParseError


@pytest.fixture
def gap_log(tmp_path):
    w = LogWriter("gap", "kron-scale10", 32, "bfs")
    w.native(read=0.1, build=0.2)
    for i in range(4):
        w.native(root=i, trial=0, time=0.01 * (i + 1))
        w.power_lines(1.0, 0.2, 0.01 * (i + 1), root=i, trial=0)
    return w.write(tmp_path / "gap.log")


def test_truncated_log_parses_prefix(gap_log):
    """A run killed mid-write leaves a truncated file: the parser keeps
    the complete lines (the paper's AWK scripts behave the same way)."""
    text = gap_log.read_text()
    lines = text.splitlines()
    gap_log.write_text("\n".join(lines[:5]) + "\n")
    records = parse_log(gap_log)
    times = [r for r in records if r.metric == "time"]
    assert 0 < len(times) < 4


def test_garbage_lines_ignored(gap_log):
    text = gap_log.read_text()
    polluted = text + "Segmentation fault (core dumped)\n@@@ noise\n"
    gap_log.write_text(polluted)
    records = parse_log(gap_log)
    assert sum(1 for r in records if r.metric == "time") == 4


def test_interleaved_stderr_noise(tmp_path):
    """Warnings interleaved inside the block (OpenMP chatter) must not
    derail root/trial tracking."""
    w = LogWriter("graphbig", "d", 32, "bfs")
    w.native(load=1.0, root=3, trial=0, time=0.5)
    w.lines.insert(3, "OMP: Warning #96: Cannot form a team")
    records = parse_log(w.write(tmp_path / "g.log"))
    times = [r for r in records if r.metric == "time"]
    assert times[0].root == 3
    assert times[0].value == 0.5


def test_header_tampering_detected(gap_log):
    text = gap_log.read_text().splitlines()
    text[0] = "# epg system=gap dataset=kron"  # malformed header
    gap_log.write_text("\n".join(text))
    with pytest.raises(LogParseError):
        parse_log(gap_log)


def test_power_line_with_corrupt_counter_skipped(tmp_path):
    w = LogWriter("gap", "d", 32, "bfs")
    w.native(root=0, trial=0, time=0.5)
    w.lines.append("PACKAGE_ENERGY:PACKAGE0 NOTANUMBER nJ 0.5 s")
    records = parse_log(w.write(tmp_path / "p.log"))
    assert not any("joule" in r.metric for r in records)


def test_mixed_system_lines_do_not_cross_contaminate(tmp_path):
    """Lines in another system's format inside a gap log are noise."""
    w = LogWriter("gap", "d", 32, "bfs")
    w.native(root=1, trial=0, time=0.25)
    w.lines.append("== time: 9.99 sec")                 # graphbig-style
    w.lines.append("load graph: 9.99 sec")              # graphmat-style
    records = parse_log(w.write(tmp_path / "x.log"))
    values = [r.value for r in records if r.metric == "time"]
    assert values == [0.25]


def test_binary_garbage_file(tmp_path):
    p = tmp_path / "junk.log"
    p.write_bytes(b"\x00\x01\x02\xff" * 10)
    with pytest.raises((LogParseError, UnicodeDecodeError)):
        parse_log(p)


@pytest.mark.parametrize(
    "system", ["gap", "graph500", "graphbig", "graphmat", "powergraph"])
def test_hostile_long_lines_parse_in_linear_time(tmp_path, system):
    """A 100 kB line of spaces and digits, alone or after any literal
    prefix of the system's own lines, parses quickly: no pattern
    backtracks quadratically on it."""
    import time
    from string import Formatter

    from repro.core.logs import _DIALECTS

    bodies = ["1 " * 50_000, " " * 99_999 + "1", "12" + "   1" * 24_999]
    prefixes = {""}
    for fmt, _ in _DIALECTS[system].lines:
        text = ""
        for literal, field, _, _ in Formatter().parse(fmt):
            text += literal
            prefixes.add(text)
            if field:
                text += "1"
                prefixes.add(text)
    worst = 0.0
    for line in (p + b for p in sorted(prefixes) for b in bodies):
        w = LogWriter(system, "d", 32, "pagerank")
        w.lines.append(line)
        path = w.write(tmp_path / "hostile.log")
        t0 = time.perf_counter()
        parse_log(path)
        worst = max(worst, time.perf_counter() - t0)
    assert worst < 0.25
