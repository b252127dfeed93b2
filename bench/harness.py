"""Shared machinery of the benchmark: the pass loop, statistics, RSS,
the hygiene guard and the machine fingerprint.

A workload (see ``workloads.py``) supplies five steps; :func:`execute`
runs them in this fixed protocol:

1. ``setup`` -- :data:`N_SETUPS` times (once when tracing or smoking);
   the median is ``setup_s`` and the last state is kept.
2. *passes* -- each pass is the workload's fixed list of operations.
   Passes repeat until ``--seconds`` have been measured (at least
   :data:`MIN_PASSES`), so both commits of a comparison do identical
   work per pass and a faster commit simply completes more passes;
   ``wall_s`` is the median pass.  With ``--trace 1`` passes alternate
   without and with the span wrappers installed.
3. ``peak_rss`` is read, then ``check`` verifies every operation's
   output -- always after the timers have stopped.
4. ``teardown``, then the hygiene guard: anything left behind (temp
   files, child processes, ``/dev/shm`` segments, a bound port, a
   daemon that did not exit 0) is a failed check.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import socket
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (the driver forbids writing
#: anywhere else); one directory per workload process.
TMP_BASE = ROOT / ".bench_tmp"

N_SETUPS = 3
MIN_PASSES = 3


def child_env() -> dict:
    """Environment for program subprocesses: ``src/`` importable."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(math.ceil(q / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Processes and memory
# ----------------------------------------------------------------------
def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of one live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids() -> list[int]:
    """Live (non-zombie) direct children of this process, other than
    the standard library's shared-memory resource tracker (a helper
    that by design lives until the interpreter exits)."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except (OSError, IndexError, ValueError):
            continue
        if (int(ppid) == me and state != "Z"
                and b"multiprocessing.resource_tracker" not in cmdline):
            out.append(int(entry))
    return out


def wait_rusage(proc: subprocess.Popen) -> tuple[int, float]:
    """Reap ``proc``; return (exit code, its own peak RSS in MB).

    ``os.wait4`` reports the reaped child's rusage alone, unlike
    ``RUSAGE_CHILDREN`` which is a running maximum over every child
    ever reaped.
    """
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def port_is_free(port: int) -> bool:
    with socket.socket() as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            s.bind(("127.0.0.1", port))
        except OSError:
            return False
    return True


def remove_tmp(path: Path) -> None:
    """Delete one scratch directory, and :data:`TMP_BASE` itself once
    the last concurrent run has left it."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_BASE.rmdir()
    except OSError:
        pass


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """One pass over a workload's fixed operation list."""

    wall_s: float
    #: One latency per unit a caller waits for (see README).
    latencies_ms: list[float]
    #: Operations completed (the numerator of ``ops_per_s``).
    ops: int
    #: Whatever ``check`` needs to verify this pass afterwards.
    payload: object = None
    #: Span index range of a traced pass (``bench.pass`` is the first).
    span_lo: int = 0
    span_hi: int = 0


@dataclass
class Checks:
    """Attempted / failed operation counts, with reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


class Workload:
    """Interface of one named workload (documented in README.md)."""

    name: str = ""
    #: ``{"full": {...}, "smoke": {...}}``: the pinned sizes.  ``full``
    #: is what README.md's numbers were measured at; ``smoke`` drives
    #: the same code paths at toy size for the benchmark's own test.
    sizes: dict = {}

    def __init__(self, seed: int, smoke: bool, trace: bool, tmp: Path):
        self.seed = seed
        self.smoke = smoke
        self.trace = trace
        self.tmp = tmp
        self.size = self.sizes["smoke" if smoke else "full"]
        #: Free-form facts for the human output and ``--out`` record.
        self.notes: dict[str, object] = {}

    def setup(self, spans=None) -> None:
        raise NotImplementedError

    def run_pass(self, k: int, spans=None) -> PassResult:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over the processes running the program."""
        return vm_hwm_mb() + sum(vm_hwm_mb(p) for p in child_pids())

    def check(self, passes: list[PassResult], checks: Checks) -> None:
        raise NotImplementedError

    def layers(self, spans, traced: list[PassResult],
               untraced: list[PassResult]) -> dict[str, float]:
        """Per-layer metrics from the traced passes (``--trace 1``)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release everything ``setup`` acquired (idempotent)."""

    def hygiene(self, checks: Checks) -> None:
        """Workload-specific leak checks after the final teardown."""


def _measure(workload: Workload, seconds: float, spans) -> list[PassResult]:
    """Repeat passes for ``seconds``; with ``spans``, odd passes traced."""
    if spans is not None:
        min_passes = 2          # one untraced, one traced
    else:
        min_passes = 1 if workload.smoke else MIN_PASSES
    passes: list[PassResult] = []
    started = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - started < seconds
           or (spans is not None and len(passes) % 2)):
        k = len(passes)
        if spans is None or k % 2 == 0:
            passes.append(workload.run_pass(k))
            continue
        lo = spans.mark()
        spans.install()
        try:
            with spans.span("bench.pass"):
                result = workload.run_pass(k, spans)
        finally:
            spans.uninstall()
        result.span_lo, result.span_hi = lo, spans.mark()
        passes.append(result)
    return passes


def _end_to_end(workload: Workload, setups: list[float],
                passes: list[PassResult], peak_mb: float) -> dict:
    lat = [x for p in passes for x in p.latencies_ms]
    wall = statistics.median(p.wall_s for p in passes)
    workload.notes["latency_samples"] = len(lat)
    return {"metrics": {"setup_s": statistics.median(setups),
                        "wall_s": wall,
                        "peak_rss_mb": peak_mb,
                        "ops_per_s": passes[0].ops / wall,
                        "p50_ms": percentile(lat, 50),
                        "p95_ms": percentile(lat, 95)}}


def _per_layer(workload: Workload, spans,
               passes: list[PassResult]) -> dict:
    untraced, traced = passes[0::2], passes[1::2]
    metrics = workload.layers(spans, traced, untraced)
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1.0)
    # For the record: the traced passes' span trees, whose self times
    # must add up to their roots' wall time.
    self_s: dict[str, float] = {}
    for p in traced:
        for name, own in spans.self_times(p.span_lo, p.span_hi,
                                          rooted=True).items():
            self_s[name] = self_s.get(name, 0.0) + own
    span_wall = sum(sum(spans.durations("bench.pass", p.span_lo, p.span_hi))
                    for p in traced)
    return {"metrics": metrics, "self_s": self_s, "span_wall_s": span_wall}


def execute(workload: Workload, seconds: float, spans=None) -> dict:
    """Run one workload by the protocol in the module docstring;
    ``spans`` (a :class:`trace.Spans`) selects ``--trace 1``.

    Returns ``{"metrics": {name: value}, "attempted", "failed",
    "problems"}`` plus, when tracing, ``"self_s"`` and ``"span_wall_s"``;
    the caller maps metric names to units and fills per-layer names the
    workload did not produce with 0.
    """
    trace = spans is not None
    shm_before = shm_entries()
    checks = Checks()
    try:
        setups = []
        if trace:
            # Setup-time layers (pool start, partitioning) need spans too.
            spans.install()
        try:
            for _ in range(1 if trace or workload.smoke else N_SETUPS):
                workload.teardown()
                t0 = time.perf_counter()
                workload.setup(spans)
                setups.append(time.perf_counter() - t0)
        finally:
            if trace:
                spans.uninstall()

        passes = _measure(workload, seconds, spans)
        peak_mb = workload.peak_rss_mb()
        workload.notes["pass_wall_s"] = [p.wall_s for p in passes]

        workload.check(passes, checks)
        if trace:
            result = _per_layer(workload, spans, passes)
        else:
            result = _end_to_end(workload, setups, passes, peak_mb)
    finally:
        workload.teardown()

    workload.hygiene(checks)
    remove_tmp(workload.tmp)
    checks.op(not workload.tmp.exists(), f"temp dir left: {workload.tmp}")
    leaked = shm_entries() - shm_before
    checks.op(not leaked, f"/dev/shm segments left: {sorted(leaked)}")
    survivors = child_pids()
    checks.op(not survivors, f"child processes left: {survivors}")
    # The tracker would otherwise end only after this process has: stop
    # it and reap it, so that nothing this run started outlives it.
    resource_tracker._resource_tracker._stop()
    return {**result, "attempted": checks.attempted,
            "failed": checks.failed, "problems": checks.problems}


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed: int, smoke: bool) -> dict:
    """Where and on what these numbers were measured."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"cores": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit or "unknown", "seed": seed, "smoke": smoke}
