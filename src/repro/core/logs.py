"""Native-format log emission and parsing.

EPG* collects execution time "by parsing log files" (Sec. III): each
system prints its own idiosyncratic lines, and the harness's AWK/Bash
parsers turn them into CSV.  This module is both halves in one place so
writer and parser can never drift apart:

* ``_DIALECTS`` -- per system, the format strings of the lines one
  execution prints;
* :class:`LogWriter` -- format those lines;
* :func:`parse_log` -- match the same strings, compiled to patterns,
  back into :class:`~repro.core.records.Record` rows.

Every log starts with one harness-written header line (the shell
wrapper's ``echo``), carrying the run coordinates that the native lines
do not repeat.
"""

from __future__ import annotations

import re
from pathlib import Path
from string import Formatter

from repro.core.records import Record
from repro.errors import LogParseError

__all__ = ["LogWriter", "parse_log", "parse_all_logs"]

_HEADER_RE = re.compile(
    r"^# epg system=(\S+) dataset=(\S+) threads=(\d+) algorithm=(\S+)\s*$")
_POWER_RE = re.compile(
    r"^(PACKAGE|DRAM)_ENERGY:PACKAGE0 (\d+) nJ ([0-9.eE+-]+) s"
    r"(?: root=(-?\d+) trial=(\d+))?\s*$")

#: Fields that become records; every other field is printed, never read.
_METRICS = frozenset({"read", "build", "load", "time", "iterations",
                      "teps"})
#: Fields that set the root/trial the following lines are charged to.
_COORDINATES = ("root", "trial")
#: Metrics that describe the whole execution, whichever root came last.
_RUN_LEVEL = frozenset({"teps"})
#: No two adjacent quantifiers can trade characters in these, so a
#: hostile line that almost matches costs linear time, not quadratic.
_FIELD_PATTERNS = {
    "metric": r"([-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?)",
    "coordinate": r"(-?\d+)",
    "text": r"\S+(?: \S+)*",
}


class _Dialect:
    """The lines one execution of a system prints, in order.

    Each line is a format string.  :meth:`LogWriter.native` formats the
    lines whose fields it is given; :func:`parse_log` matches the same
    strings compiled to patterns, so writer and parser cannot drift.
    ``names`` spells the header's algorithm in the system's own words
    (the ``{name}`` field): a line naming an algorithm the system has
    no word for is not printed.
    """

    def __init__(self, *lines: str, names: dict[str, str] | None = None):
        self.names = names or {}
        self.lines = [(fmt, [f for _, f, _, _ in Formatter().parse(fmt)
                             if f]) for fmt in lines]
        #: The lines that make or place a record, as one alternation
        #: with a group per line.  ``slots`` maps that group's number
        #: to the ``Match.groups()`` positions of its ``root`` and
        #: ``trial`` (or ``None``) and of each metric.
        alternatives, self.slots, group = [], {}, 1
        for fmt, fields in self.lines:
            captured = [f for f in fields
                        if f in _METRICS or f in _COORDINATES]
            if not captured:
                continue
            at = {f: group + i for i, f in enumerate(captured)}
            self.slots[group] = (at.get("root"), at.get("trial"),
                                 [(at[f], f) for f in captured
                                  if f in _METRICS])
            alternatives.append(f"({_pattern(fmt)})")
            group += 1 + len(captured)
        self.pattern = re.compile("|".join(alternatives))
        printed = {f for _, fields in self.lines for f in fields}
        # A "load" that includes the "read" and no "build" line of its
        # own: construction is the difference (GraphMat, Sec. II).
        self.derives_build = ({"read", "load"} <= printed
                              and "build" not in printed)


def _pattern(fmt: str) -> str:
    """``fmt`` as an anchored pattern: each run of spaces matches any
    run of whitespace, metrics and coordinates are captured, and other
    fields are matched and dropped."""
    parts = ["^"]
    for literal, field, _, _ in Formatter().parse(fmt):
        parts.append(r"\s+".join(re.escape(word)
                                  for word in re.split(" +", literal)))
        if field in _METRICS:
            parts.append(_FIELD_PATTERNS["metric"])
        elif field in _COORDINATES:
            parts.append(_FIELD_PATTERNS["coordinate"])
        elif field:
            parts.append(_FIELD_PATTERNS["text"])
    return "".join(parts) + "$"


#: What each system prints, modeled on the real packages; GraphMat's
#: block reproduces the Table I excerpt verbatim.
_DIALECTS = {
    "gap": _Dialect(
        "Read Time:           {read:.5f}",
        "Build Time:          {build:.5f}",
        "Root: {root} Trial: {trial} Trial Time:      {time:.6e}",
        # GAP reports sweeps for PageRank only.
        "{name} iterations: {iterations}",
        names={"pagerank": "PageRank"}),
    # The Graph500 runs every search in one execution: the bfs index
    # is the trial, construction and TEPS are the execution's own.
    "graph500": _Dialect(
        "SCALE: {scale}",
        "edgefactor: {edgefactor}",
        "NBFS: {nbfs}",
        "construction_time: {build:.6e}",
        "bfs {trial:3d} root {root} time: {time:.6e}",
        "min_time: {min:.6e}",
        "mean_time: {mean:.6e}",
        "max_time: {max:.6e}",
        "harmonic_mean_TEPS: {teps:.6e}"),
    "graphbig": _Dialect(
        "==GraphBIG==",
        "== load time: {load:.5f} sec",
        "== root: {root} trial: {trial}",
        "== time: {time:.6e} sec",
        "== iterations: {iterations}"),
    "graphmat": _Dialect(
        "root: {root} trial: {trial}",
        "Finished file read of {dataset}. time: {read:.6g}",
        "load graph: {load:.6g} sec",
        "initialize engine: {init:.6g} sec",
        "run algorithm 1 (count degree): {degree:.6g} sec",
        "run algorithm 2 (compute {name}): {time:.6g} sec",
        "completed {iterations} iterations",
        "print output: {print:.6g} sec",
        "deinitialize engine: {deinit:.6g} sec",
        names={"bfs": "BFS", "sssp": "SSSP", "pagerank": "PageRank",
               "wcc": "Connected Components", "cdlp": "Label Propagation",
               "lcc": "Triangle Counting", "kcore": "KCore",
               "mis": "MIS"}),
    "powergraph": _Dialect(
        "INFO:  Loading graph. Finished in {load:.5f} seconds",
        "INFO:  root: {root} trial: {trial}",
        "INFO:  Finished Running engine in {time:.6e} seconds.",
        "INFO:  engine iterations: {iterations}"),
}


class LogWriter:
    """Accumulates one run's native log and writes it to disk."""

    def __init__(self, system: str, dataset: str, threads: int,
                 algorithm: str):
        self.system = system
        self.dataset = dataset
        self.threads = threads
        self.algorithm = algorithm
        self.lines: list[str] = [
            f"# epg system={system} dataset={dataset} threads={threads} "
            f"algorithm={algorithm}"
        ]

    def native(self, **fields) -> None:
        """Append the system's dialect lines whose fields are all given
        and not ``None``, in dialect order."""
        dialect = _DIALECTS[self.system]
        fields.update(dataset=self.dataset,
                      name=dialect.names.get(self.algorithm))
        for fmt, needs in dialect.lines:
            if all(fields.get(f) is not None for f in needs):
                self.lines.append(fmt.format(**fields))

    def power_lines(self, pkg_j: float, dram_j: float, duration_s: float,
                    root: int = -1, trial: int = 0) -> None:
        """The paper's power_rapl_print output, tagged by the wrapper."""
        tag = f" root={root} trial={trial}"
        self.lines.append(
            f"PACKAGE_ENERGY:PACKAGE0 {int(pkg_j * 1e9)} nJ "
            f"{duration_s:.6f} s{tag}")
        self.lines.append(
            f"DRAM_ENERGY:PACKAGE0 {int(dram_j * 1e9)} nJ "
            f"{duration_s:.6f} s{tag}")

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(self.lines) + "\n", encoding="utf-8")
        return path


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def parse_log(path: str | Path) -> list[Record]:
    """Parse one native log file into records.

    Raises :class:`LogParseError` carrying the file, line number, and
    raw line when the file is unusable.  Undecodable bytes inside an
    otherwise-valid log (a run killed mid-``fwrite``) are replaced, so
    the complete lines around the damage still parse.
    """
    path = Path(path)
    lines = path.read_bytes().decode("utf-8",
                                     errors="replace").splitlines()
    if not lines:
        raise LogParseError("empty log", path=path)
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise LogParseError("missing epg header line", path=path,
                            line_no=1, line=lines[0])
    system, dataset = m.group(1), m.group(2)
    threads, algorithm = int(m.group(3)), m.group(4)
    dialect = _DIALECTS.get(system)
    if dialect is None:
        raise LogParseError(f"unknown system {system!r}", path=path,
                            line_no=1, line=lines[0])

    def record(metric: str, value: float, root: int,
               trial: int) -> Record:
        return Record(system, algorithm, dataset, threads, metric, value,
                      root, trial)

    records: list[Record] = []
    root, trial = -1, 0
    for line in lines[1:]:
        if (m := dialect.pattern.match(line)):
            root_at, trial_at, metrics = dialect.slots[m.lastindex]
            g = m.groups()
            if root_at is not None:
                root = int(g[root_at])
            if trial_at is not None:
                trial = int(g[trial_at])
            for i, f in metrics:
                records.append(record(f, float(g[i]), -1, 0)
                               if f in _RUN_LEVEL else
                               record(f, float(g[i]), root, trial))
        elif (pw := _POWER_RE.match(line)):
            nj, dur = int(pw.group(2)), float(pw.group(3))
            r = root if pw.group(4) is None else int(pw.group(4))
            t = trial if pw.group(5) is None else int(pw.group(5))
            joules = nj * 1e-9
            prefix = "pkg" if pw.group(1) == "PACKAGE" else "dram"
            records.append(record(f"{prefix}_joules", joules, r, t))
            if dur > 0:
                records.append(record(f"{prefix}_watts", joules / dur,
                                      r, t))

    if dialect.derives_build:
        reads = {(r.root, r.trial): r.value for r in records
                 if r.metric == "read"}
        records += [
            record("build", max(r.value - reads.get((r.root, r.trial), 0.0),
                                0.0), r.root, r.trial)
            for r in records if r.metric == "load"]
    return records


def parse_all_logs(log_dir: str | Path, *, salvage: bool = True,
                   problems: list[LogParseError] | None = None,
                   ) -> list[Record]:
    """Parse every ``*.log`` under ``log_dir`` (phase 4).

    With ``salvage`` (the default) a file that cannot be parsed is
    skipped -- its :class:`LogParseError` (carrying file and line) is
    appended to ``problems`` and logged -- and every record from the
    healthy files is still returned: one truncated log must not discard
    a whole suite's results.  ``salvage=False`` restores fail-fast
    behaviour.  An empty directory, or a directory where *every* file
    is damaged, always raises.
    """
    from repro.logging_util import get_logger

    log_dir = Path(log_dir)
    records: list[Record] = []
    paths = sorted(log_dir.rglob("*.log"))
    if not paths:
        raise LogParseError("no log files found", path=log_dir)
    errors: list[LogParseError] = []
    parsed_any = False
    for p in paths:
        try:
            records.extend(parse_log(p))
            parsed_any = True
        except LogParseError as exc:
            if not salvage:
                raise
            errors.append(exc)
            get_logger("repro.pipeline").warning(
                "salvage: skipping unparseable log %s", exc)
    if errors and not parsed_any:
        raise LogParseError(
            f"all {len(paths)} log files unparseable; first: {errors[0]}",
            path=log_dir)
    if problems is not None:
        problems.extend(errors)
    return records
