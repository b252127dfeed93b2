"""Benchmark-side spans: timing the program's public callables from outside.

Tracing here never touches ``src/``: :func:`Spans.install` replaces a
fixed list of public callables (:data:`BOUNDARY`) with wrappers that
record ``(name, start, end, parent)`` in memory, and :meth:`uninstall`
puts the originals back.  A name bound with ``from x import f`` is
patched in the *importing* module, because that is the binding the
caller resolves.  Spans nest per thread; a span's self time is its
duration minus the durations of its direct children.

End-to-end metrics are always measured with nothing installed.
"""

from __future__ import annotations

import importlib
import threading
import time

__all__ = ["BOUNDARY", "Spans"]


def _system_cell(args, kwargs):
    # GraphSystem.run(self, loaded, algorithm, ...)
    algorithm = args[2] if len(args) > 2 else kwargs["algorithm"]
    return f"systems.{args[0].name}.{algorithm}"


#: The wrapped boundary: (module, attribute path, span name).  A span
#: name may be a callable of ``(args, kwargs)`` when it depends on the
#: call (one name per kernel cell).  This list is the documentation of
#: what "a layer" means in every per-layer metric.
BOUNDARY = (
    # core: the five phases, the cell runner, logs, reports
    ("repro.core.experiment", "Experiment.setup", "core.experiment.setup"),
    ("repro.core.experiment", "Experiment.homogenize",
     "core.experiment.homogenize"),
    ("repro.core.experiment", "Experiment.run", "core.experiment.run"),
    ("repro.core.experiment", "Experiment.parse", "core.experiment.parse"),
    ("repro.core.experiment", "Experiment.analyze",
     "core.experiment.analyze"),
    ("repro.core.runner", "Runner.run_system_algorithm", "core.runner.cell"),
    ("repro.core.logs", "LogWriter.write", "core.logs.write"),
    ("repro.core.experiment", "parse_all_logs", "core.logs.parse_all"),
    ("repro.core.html_report", "render_epg_html", "core.report.epg_html"),
    ("repro.core.provenance", "capture", "core.report.provenance"),
    # datasets
    ("repro.core.experiment", "generate_kronecker", "datasets.kronecker"),
    ("repro.streaming.scenario", "generate_kronecker", "datasets.kronecker"),
    ("repro.core.experiment", "homogenize", "datasets.homogenize"),
    # systems
    ("repro.systems.base", "GraphSystem.load", "systems.load"),
    ("repro.systems.base", "GraphSystem.run", _system_cell),
    ("repro.systems.base", "GraphSystem.run_many", "systems.run_many"),
    # graphalytics
    ("repro.graphalytics.harness", "GraphalyticsHarness.run_matrix",
     "graphalytics.matrix"),
    ("repro.graphalytics", "render_html_report", "core.report.graphalytics"),
    # shard
    ("repro.shard.engine", "partition_graph", "shard.partition"),
    ("repro.shard.engine", "ShardEngine.__init__", "shard.engine_start"),
    ("repro.shard.drivers", "shard_dobfs", "shard.dobfs"),
    ("repro.shard.drivers", "shard_bfs_bitmap", "shard.bfs_bitmap"),
    ("repro.shard.drivers", "shard_delta_stepping", "shard.delta_stepping"),
    ("repro.shard.drivers", "shard_pagerank", "shard.pagerank"),
    # service
    ("repro.service.daemon", "QueryDaemon.handle_query",
     "service.handle_query"),
    ("repro.service.admission", "AdmissionController.try_admit",
     "service.try_admit"),
    ("repro.service.batching", "BatchingExecutor.submit", "service.submit"),
    ("repro.service.graphs", "ResidentGraphManager.lease", "service.lease"),
    # streaming
    ("repro.streaming.replay", "StreamReplay.run", "streaming.replay"),
    ("repro.graph.dynamic", "DynamicGraph.apply", "graph.dynamic.apply"),
    ("repro.graph.dynamic", "DynamicGraph.snapshot",
     "graph.dynamic.snapshot"),
    ("repro.algorithms.incremental", "IncrementalBFS.__init__",
     "algorithms.incremental.bfs.init"),
    ("repro.algorithms.incremental", "IncrementalSSSP.__init__",
     "algorithms.incremental.sssp.init"),
    ("repro.algorithms.incremental", "IncrementalPageRank.__init__",
     "algorithms.incremental.pagerank.init"),
    ("repro.algorithms.incremental", "IncrementalBFS.update",
     "algorithms.incremental.bfs"),
    ("repro.algorithms.incremental", "IncrementalSSSP.update",
     "algorithms.incremental.sssp"),
    ("repro.algorithms.incremental", "IncrementalPageRank.update",
     "algorithms.incremental.pagerank"),
)


class Spans:
    """In-memory span recorder plus the patcher that feeds it."""

    def __init__(self, workload: str):
        self.workload = workload
        #: ``[name, start, end, parent_index]``; parent -1 = thread root.
        self.records: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        #: Work counts seen at the boundary: the drained
        #: ``repro.graph.scratch`` counters and the shard engines'
        #: per-kernel exchange accounting (see install()).
        self._counters: dict[str, float] = {"shard_rounds": 0,
                                            "shard_bytes": 0}
        #: Engines built while installed.
        self.engines: list = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Index of this thread's innermost open span (-1: none)."""
        stack = self._stack()
        return stack[-1] if stack else -1

    def span(self, name: str):
        """Context manager recording one span (the workload's root)."""
        return _Span(self, name)

    def _wrap(self, fn, name, after=None):
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with _Span(self, label):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every :data:`BOUNDARY` callable; idempotent per call
        pair with :meth:`uninstall`."""
        after = {
            "shard.engine_start": lambda a, _: self.engines.append(a[0]),
            "shard.dobfs": self._note_exchange,
            "shard.bfs_bitmap": self._note_exchange,
            "shard.delta_stepping": self._note_exchange,
        }
        for module_name, path, name in BOUNDARY:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            hook = after.get(name) if isinstance(name, str) else None
            setattr(owner, attr, self._wrap(original, name, hook))
            self._patched.append((owner, attr, original))
        # The frontier library's counters are drained (and zeroed)
        # inside GraphSystem.run, so the only outside view of them is
        # the drain call itself.
        base = importlib.import_module("repro.systems.base")
        drain = base.consume_counters

        def counting_drain():
            out = drain()
            for key, value in out.items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            return out

        base.consume_counters = counting_drain
        self._patched.append((base, "consume_counters", drain))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _note_exchange(self, args, _out) -> None:
        # Every shard driver takes the engine as its third argument and
        # resets its accounting on entry, so this is one kernel's worth.
        engine = args[2]
        self._counters["shard_rounds"] += int(engine.rounds)
        self._counters["shard_bytes"] += int(engine.bytes_exchanged)

    def counters(self) -> dict[str, float]:
        """Snapshot of the running work counts (callers take deltas)."""
        return dict(self._counters)

    # ------------------------------------------------------------------
    def mark(self) -> int:
        """Current end of the record list; two marks bound a range."""
        return len(self.records)

    def durations(self, name: str, lo: int = 0,
                  hi: int | None = None) -> list[float]:
        return [r[2] - r[1] for r in self.records[lo:hi]
                if r[0] == name and r[2] is not None]

    def self_times(self, lo: int = 0, hi: int | None = None, *,
                   rooted: bool = False) -> dict[str, float]:
        """Σ self time per span name over ``records[lo:hi]``.

        A span whose parent lies outside the range counts as a root.
        ``rooted`` keeps only the tree under ``records[lo]``: spans that
        other threads opened have no parent here and overlap it in
        time, so they are left out of a sum that must not exceed the
        root's wall time.
        """
        hi = len(self.records) if hi is None else hi
        own: dict[int, float] = {}
        for i in range(lo, hi):
            name, start, end, parent = self.records[i]
            if end is None or (rooted and i > lo and parent not in own):
                continue
            own[i] = end - start
            if parent in own:
                own[parent] -= end - start
        out: dict[str, float] = {}
        for i, value in own.items():
            name = self.records[i][0]
            out[name] = out.get(name, 0.0) + value
        return out

    def counts(self, lo: int = 0, hi: int | None = None) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records[lo:hi]:
            out[r[0]] = out.get(r[0], 0) + 1
        return out

    def to_json(self) -> list[dict]:
        return [{"name": r[0], "start": r[1], "end": r[2],
                 "parent": r[3], "workload": self.workload}
                for r in self.records]


class _Span:
    __slots__ = ("spans", "name", "record")

    def __init__(self, spans: Spans, name: str):
        self.spans = spans
        self.name = name

    def __enter__(self):
        stack = self.spans._stack()
        self.record = [self.name, 0.0, None, stack[-1] if stack else -1]
        # list.append is atomic under the interpreter lock; the index is
        # read back from the record's identity, not the list length,
        # because another thread may append in between.
        records = self.spans.records
        records.append(self.record)
        index = len(records) - 1
        while records[index] is not self.record:
            index -= 1
        stack.append(index)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.record[2] = time.perf_counter()
        self.spans._stack().pop()
        return False
