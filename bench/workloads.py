"""The five named workloads.

Each class states, in its docstring, why it exists and exactly what is
inside its timer; ``README.md`` repeats that in prose and
``BENCHMARK.json`` carries the one-line ``why``.  Sizes are pinned in
each class's ``sizes``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench.harness import (
    BENCH_DIR,
    Checks,
    PassResult,
    Workload,
    child_env,
    free_port,
    percentile,
    port_is_free,
    vm_hwm_mb,
    wait_rusage,
)

#: The 12 (system, algorithm) cells every system-facing workload draws
#: from; an unsupported pair such as powergraph/bfs never appears.
ROOTED_CELLS = (("gap", "bfs"), ("gap", "sssp"), ("graphbig", "bfs"),
                ("graphbig", "sssp"), ("graphmat", "bfs"),
                ("graphmat", "sssp"), ("graph500", "bfs"),
                ("powergraph", "sssp"))
PAGERANK_CELLS = (("gap", "pagerank"), ("graphbig", "pagerank"),
                  ("graphmat", "pagerank"), ("powergraph", "pagerank"))
CELLS = ROOTED_CELLS + PAGERANK_CELLS
SHARD_CELLS = (("gap", "bfs"), ("gap", "sssp"), ("graph500", "bfs"))
N_SHARDS = 2
N_THREADS = 32
#: Generator seed of every pinned graph, root set and stream (the
#: repo's own default).  Two Kronecker graphs of one scale differ in
#: kernel work by far more than the bound a comparison has to resolve
#: (measured over ten graph seeds: 1.8-3.0 s for the same sweep, and
#: +-10 % for the stream replay; twelve roots of one graph still differ
#: by 46-117 ms each in powergraph SSSP), so ``--seed`` draws only what
#: can vary without changing the amount of work: the order roots are
#: visited in, the request mix of ``serve-closed``, and -- passed
#: through to the program -- everything in ``reproduce-cold``.
DATASET_SEED = 20170402

#: Span name -> per-layer metric its self time is summed into.  Kernel
#: cells (``systems.<system>.<algorithm>``) are handled by
#: :func:`layer_times`.
LAYER_OF_SPAN = {
    "core.suite": "core.unattributed_s",
    "core.experiment.setup": "core.runner_self_s",
    "core.experiment.run": "core.runner_self_s",
    "core.runner.cell": "core.runner_self_s",
    "core.logs.write": "core.runner_self_s",
    "core.experiment.parse": "core.parse_s",
    "core.logs.parse_all": "core.parse_s",
    "core.experiment.analyze": "core.analyze_s",
    "core.report.epg_html": "core.report_s",
    "core.report.provenance": "core.report_s",
    "core.report.graphalytics": "core.report_s",
    "core.experiment.homogenize": "datasets.homogenize_s",
    "datasets.homogenize": "datasets.homogenize_s",
    "datasets.kronecker": "datasets.kronecker_s",
    "systems.load": "systems.load_s",
    "systems.run_many": "systems.kernel_s",
    "graphalytics.matrix": "graphalytics.matrix_s",
    "shard.partition": "shard.partition_s",
    "shard.engine_start": "shard.engine_start_s",
    "shard.dobfs": "shard.dobfs_s",
    "shard.bfs_bitmap": "shard.bfs_bitmap_s",
    "shard.delta_stepping": "shard.delta_stepping_s",
    "streaming.replay": "streaming.replay_self_s",
    "graph.dynamic.apply": "graph.dynamic.apply_s",
    "graph.dynamic.snapshot": "graph.dynamic.snapshot_s",
    "algorithms.incremental.bfs.init": "streaming.init_s",
    "algorithms.incremental.sssp.init": "streaming.init_s",
    "algorithms.incremental.pagerank.init": "streaming.init_s",
    "algorithms.incremental.bfs": "algorithms.incremental.bfs_s",
    "algorithms.incremental.sssp": "algorithms.incremental.sssp_s",
    "algorithms.incremental.pagerank": "algorithms.incremental.pagerank_s",
}
_CELL_SPANS = {f"systems.{s}.{a}" for s, a in CELLS}


def layer_times(spans, passes: list[PassResult]) -> dict[str, float]:
    """Per-pass mean self time of every layer the traced passes crossed,
    call counts, and the share no wrapped callable accounts for."""
    out: dict[str, float] = {}
    n = len(passes)
    calls: dict[str, int] = {}
    root_self = root_total = 0.0
    for p in passes:
        own_by_name = spans.self_times(p.span_lo, p.span_hi, rooted=True)
        for name, own in own_by_name.items():
            metric = LAYER_OF_SPAN.get(name)
            if name.startswith("systems.") and name not in LAYER_OF_SPAN:
                out["systems.kernel_s"] = (
                    out.get("systems.kernel_s", 0.0) + own / n)
                metric = name + "_s" if name in _CELL_SPANS else None
            if metric is not None:
                out[metric] = out.get(metric, 0.0) + own / n
        for name, c in spans.counts(p.span_lo, p.span_hi).items():
            calls[name] = calls.get(name, 0) + c
        # The program's own root when there is one, else the pass.
        root = "core.suite" if "core.suite" in own_by_name else "bench.pass"
        root_self += own_by_name[root]
        root_total += sum(spans.durations(root, p.span_lo, p.span_hi))
    out["systems.load_calls"] = calls.get("systems.load", 0) / n
    out["systems.kernel_calls"] = sum(
        c for name, c in calls.items()
        if name.startswith("systems.") and name not in LAYER_OF_SPAN) / n
    out["bench.unattributed_frac"] = root_self / root_total
    return out


def _kron_dataset(scale: int, n_roots: int, out_dir: Path):
    """Generate + homogenize the pinned Kronecker dataset (setup work)."""
    from repro.datasets.homogenize import homogenize
    from repro.datasets.kronecker import KroneckerSpec, generate_kronecker

    edges = generate_kronecker(KroneckerSpec(scale=scale, seed=DATASET_SEED,
                                             weighted=True))
    return homogenize(edges, out_dir, n_roots=n_roots, seed=DATASET_SEED)


def _reference_csr(dataset):
    from repro.graph.csr import CSRGraph

    return CSRGraph.from_edge_list(dataset.load_edges(),
                                   symmetrize=not dataset.directed)


def _same_output(a: dict, b: dict) -> bool:
    return (a.keys() == b.keys()
            and all(a[k].dtype == b[k].dtype
                    and a[k].tobytes() == b[k].tobytes() for k in a))


# ======================================================================
class ReproduceCold(Workload):
    """``epg reproduce`` into a fresh directory, no cache.

    *Why:* the headline user command.  The harness layers (``datasets``,
    ``systems.load``, ``core``, ``graphalytics``) do most of the work
    and the kernels little, so a kernel speed-up should barely move it
    and a homogenize/load/report speed-up should.

    *Timer:* from spawning ``python -m repro.cli reproduce --scale S
    --roots R --jobs 1 --shards 1 --no-svg --seed N --output <fresh
    dir>`` to reaping it.  Setup is the temp directory and one untimed
    run of the same command at toy size (``warm``), so that compiling
    the ``.pyc`` of a module the command imports is never charged.  A
    bare ``python -m repro.cli systems`` would do for that alone, but
    interpreter start-up plus imports is the one cost on the reference
    box that swings by a third between quarter-hours (0.45-0.67 s) while
    computation swings by a tenth, and a ``setup_s`` made of nothing
    else cannot hold a 25 % bound on unchanged code.  With ``--trace 1`` the same arguments enter ``repro.cli.main``
    inside ``inner_reproduce.py`` in a fresh interpreter, alternately
    without and with the span wrappers; ``wall_s`` is then the
    ``run_paper_suite`` span.
    """

    name = "reproduce-cold"
    sizes = {"full": dict(scale=10, roots=8, warm=dict(scale=6, roots=1)),
             "smoke": dict(scale=8, roots=2, warm=dict(scale=6, roots=1))}

    _SUBDIRS = ("kron", "dota", "pat", "scaling", "structural")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dir: Path | None = None
        self._rss = 0.0

    def setup(self, spans=None) -> None:
        self.dir = self.tmp / "reproduce"
        self.dir.mkdir(parents=True)
        warm = self.dir / "warm"
        subprocess.run([sys.executable, "-m", "repro.cli",
                        *self._args(warm, **self.size["warm"])],
                       env=child_env(), cwd=self.dir, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=120)
        shutil.rmtree(warm)

    def _args(self, out: Path, scale: int, roots: int) -> list[str]:
        return ["reproduce", "--output", str(out), "--scale", str(scale),
                "--roots", str(roots), "--jobs", "1", "--shards", "1",
                "--no-svg", "--seed", str(self.seed)]

    def run_pass(self, k: int, spans=None) -> PassResult:
        out = self.dir / f"out{k}"
        args = self._args(out, self.size["scale"], self.size["roots"])
        inner = self.dir / f"inner{k}.json"
        if self.trace:
            cmd = [sys.executable, str(BENCH_DIR / "inner_reproduce.py"),
                   "1" if spans is not None else "0", str(inner), *args]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        with open(self.dir / f"pass{k}.out", "wb") as so, \
                open(self.dir / f"pass{k}.err", "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=child_env(), cwd=self.dir,
                                    stdout=so, stderr=se)
            code, rss = wait_rusage(proc)
            wall = time.perf_counter() - t0
        self._rss = max(self._rss, rss)

        facts = {"code": code, "outer_wall_s": wall,
                 "stderr": (self.dir / f"pass{k}.err").read_text(
                     encoding="utf-8", errors="replace")[-2000:],
                 **self._inspect(out)}
        if self.trace and inner.exists():
            record = json.loads(inner.read_text("utf-8"))
            wall = record["root_wall_s"]
            if spans is not None:
                # The inner process's spans become this pass's spans
                # (the enclosing "bench.pass" span is their parent).
                parent = spans.current()
                base = len(spans.records)
                for name, start, end, par in record["records"]:
                    spans.records.append(
                        [name, start, end,
                         parent if par < 0 else base + par])
        shutil.rmtree(out, ignore_errors=True)
        ran = sum(s != "unsupported" for s in facts["cells"].values())
        return PassResult(wall, [wall * 1e3], max(ran, 1), facts)

    def _inspect(self, out: Path) -> dict:
        """What one finished run left behind: every cell's status from
        the checkpoint ledgers, the report digest, dataset bytes."""
        cells = {}
        for sub in self._SUBDIRS:
            path = out / sub / "checkpoint.json"
            if path.exists():
                ledger = json.loads(path.read_text("utf-8"))["cells"]
                cells.update({f"{sub}:{c}": v["status"]
                              for c, v in ledger.items()})
        report = out / "REPORT.md"
        return {"cells": cells,
                "sha": (hashlib.sha256(report.read_bytes()).hexdigest()
                        if report.exists() else None),
                "bytes_written": sum(
                    p.stat().st_size for d in out.glob("*/datasets")
                    for p in d.rglob("*") if p.is_file())}

    def peak_rss_mb(self) -> float:
        return self._rss

    def check(self, passes, checks: Checks) -> None:
        shas = set()
        for k, p in enumerate(passes):
            f = p.payload
            checks.op(f["code"] == 0,
                      f"pass {k}: exit {f['code']}: {f['stderr'][-300:]}")
            checks.op("completed degraded" not in f["stderr"],
                      f"pass {k}: completed degraded")
            checks.op(bool(f["cells"]), f"pass {k}: no cell ledger")
            for cell, status in f["cells"].items():
                if status != "unsupported":
                    checks.op(status == "completed",
                              f"pass {k}: {cell} {status}")
            shas.add(f["sha"])
        checks.op(len(shas) == 1 and None not in shas,
                  f"REPORT.md differs across passes: {sorted(map(str, shas))}")
        self.notes["report_sha256"] = passes[0].payload["sha"]

    def layers(self, spans, traced, untraced) -> dict[str, float]:
        out = layer_times(spans, traced)
        out["cli.startup_s"] = statistics.median(
            p.payload["outer_wall_s"] - p.wall_s for p in untraced)
        out["datasets.bytes_written"] = traced[0].payload["bytes_written"]
        return out

    def teardown(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


# ======================================================================
class KernelSweep(Workload):
    """All five systems' kernels on one resident graph, in-process.

    *Why:* the kernel layer (``systems/*``, ``graph.frontier``,
    ``graph.scratch``) does all of the timed work and the harness none:
    the mirror image of ``reproduce-cold``.

    *Timer:* the sum of the individual ``GraphSystem.run`` calls --
    ``roots`` roots x the 8 rooted cells, then one ``pagerank`` on each
    of 4 systems, ``n_threads=32``, ``shards=1``.  Generate, homogenize,
    ``GraphSystem.load`` x 5 and one warm-up call per cell are setup.
    Output comparison between calls is outside every timer.
    """

    name = "kernel-sweep"
    sizes = {"full": dict(scale=13, roots=12),
             "smoke": dict(scale=9, roots=2)}
    cells = CELLS
    shards = 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dir: Path | None = None
        self.systems: dict = {}
        self.loaded: dict = {}
        self._first: list | None = None

    # -- helpers --------------------------------------------------------
    def _make_systems(self, shards: int) -> tuple[dict, dict]:
        from repro.systems.registry import create_system

        systems, loaded = {}, {}
        for name in dict.fromkeys(s for s, _ in self.cells):
            systems[name] = create_system(name, n_threads=N_THREADS,
                                          shards=shards)
            loaded[name] = systems[name].load(self.dataset)
        for system, algorithm in self.cells:
            root = self.roots[0] if algorithm != "pagerank" else None
            systems[system].run(loaded[system], algorithm, root=root)
        return systems, loaded

    def _ops(self):
        for root in self.roots:
            for system, algorithm in self.cells:
                if algorithm != "pagerank":
                    yield system, algorithm, root
        for system, algorithm in self.cells:
            if algorithm == "pagerank":
                yield system, algorithm, None

    @staticmethod
    def _close_engines(loaded: dict) -> None:
        # No public handle closes a loaded graph's shard pools before
        # interpreter exit, and the hygiene guard must see them gone.
        for graph in loaded.values():
            for engine in graph.__dict__.get("_shard_engines", {}).values():
                engine.close()

    # -- protocol -------------------------------------------------------
    def setup(self, spans=None) -> None:
        self.dir = self.tmp / "dataset"
        self.dataset = _kron_dataset(self.size["scale"],
                                     self.size["roots"], self.dir)
        self.roots = [int(r) for r in self.dataset.roots]
        random.Random(self.seed).shuffle(self.roots)
        self.systems, self.loaded = self._make_systems(self.shards)

    def run_pass(self, k: int, spans=None) -> PassResult:
        lat, results, same = [], [], []
        before = spans.counters() if spans else None
        edges = 0.0
        for i, (system, algorithm, root) in enumerate(self._ops()):
            sysm, graph = self.systems[system], self.loaded[system]
            t0 = time.perf_counter()
            res = sysm.run(graph, algorithm, root=root)
            lat.append((time.perf_counter() - t0) * 1e3)
            edges += res.counters.get("edges_examined", 0.0)
            if self._first is None:
                results.append((system, algorithm, root, res))
            else:
                same.append(_same_output(res.output,
                                         self._first[i][3].output))
        if self._first is None:
            self._first = results
        facts = {"same": same, "edges_examined": edges}
        if spans:
            after = spans.counters()
            facts["counters"] = {k: after[k] - before.get(k, 0)
                                 for k in after}
        return PassResult(sum(lat) / 1e3, lat, len(lat), facts)

    def check(self, passes, checks: Checks) -> None:
        from repro.algorithms import pagerank, sssp_dijkstra
        from repro.errors import ValidationError
        from repro.graph.validation import (
            validate_bfs_parents,
            validate_pagerank,
            validate_sssp_distances,
        )

        csr = _reference_csr(self.dataset)
        rank_ref = None
        for system, algorithm, root, res in self._first:
            what = f"{system}/{algorithm} root {root}"
            try:
                if algorithm == "bfs":
                    validate_bfs_parents(csr, root, res.output["parent"],
                                         directed=self.dataset.directed)
                elif algorithm == "sssp":
                    validate_sssp_distances(
                        res.output["dist"], sssp_dijkstra(csr, root),
                        rtol=1e-4, atol=1e-5)
                else:
                    if rank_ref is None:
                        rank_ref = pagerank(csr)[0]
                    validate_pagerank(res.output["rank"], rank_ref,
                                      tol=5e-3)
                checks.op(True)
            except (ValidationError, KeyError) as exc:
                checks.op(False, f"{what}: {exc}")
        self._check_repeats(passes, checks)

    def _check_repeats(self, passes, checks: Checks) -> None:
        """Kernels are deterministic: every later pass must reproduce
        pass 0 byte for byte (compared as the pass ran, outside timers)."""
        ops = list(self._ops())
        for k, p in enumerate(passes[1:], 1):
            for (system, algorithm, root), ok in zip(ops, p.payload["same"]):
                checks.op(ok, f"pass {k}: {system}/{algorithm} root {root} "
                              "differs from pass 0")

    def layers(self, spans, traced, untraced) -> dict[str, float]:
        out = layer_times(spans, traced)
        # Counts are one pass's worth (they must repeat exactly).
        counters = traced[0].payload["counters"]
        out["systems.edges_examined"] = traced[0].payload["edges_examined"]
        out["graph.frontier.gather_edges"] = counters.get("gather_edges", 0)
        out["graph.scratch.reuse"] = counters.get("scratch_reuse", 0)
        return out

    def teardown(self) -> None:
        self._close_engines(self.loaded)
        self.systems, self.loaded = {}, {}
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


# ======================================================================
class ShardSweep(KernelSweep):
    """The same kernels, every sweep crossing ``repro.shard``.

    *Why:* identical kernels to ``kernel-sweep`` but every call goes
    through the shard engine (supersteps, delta rings, semaphores).
    The pair shows whether a shard-engine change helps sharded runs
    (here) without touching serial ones (``kernel-sweep``, predicted no
    change).

    *Timer:* the sum of the ``GraphSystem.run`` calls for ``roots``
    roots x {gap bfs, gap sssp, graph500 bfs} on systems created with
    ``shards=2`` and the default ``shard_strategy``.  Partitioning, pool
    start and one warm-up root per cell are setup.
    """

    name = "shard-sweep"
    sizes = {"full": dict(scale=13, roots=32),
             "smoke": dict(scale=9, roots=2)}
    cells = SHARD_CELLS
    shards = N_SHARDS

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._serial: tuple[dict, dict] | None = None

    def _serial_twins(self) -> tuple[dict, dict]:
        if self._serial is None:
            self._serial = self._make_systems(1)
        return self._serial

    def _serial_pass(self) -> tuple[float, list]:
        systems, loaded = self._serial_twins()
        wall, outputs = 0.0, []
        for system, algorithm, root in self._ops():
            t0 = time.perf_counter()
            res = systems[system].run(loaded[system], algorithm, root=root)
            wall += time.perf_counter() - t0
            outputs.append(res.output)
        return wall, outputs

    def check(self, passes, checks: Checks) -> None:
        _, serial = self._serial_pass()
        for (system, algorithm, root, res), want in zip(self._first, serial):
            checks.op(_same_output(res.output, want),
                      f"{system}/{algorithm} root {root}: sharded output "
                      "is not byte-identical to serial")
        self._check_repeats(passes, checks)

    def layers(self, spans, traced, untraced) -> dict[str, float]:
        from repro.shard.drivers import shard_pagerank

        out = layer_times(spans, traced)
        # Engines are built by the warm-up calls, i.e. during setup.
        whole = spans.self_times()
        out["shard.partition_s"] = whole.get("shard.partition", 0.0)
        out["shard.engine_start_s"] = whole.get("shard.engine_start", 0.0)
        counters = traced[0].payload["counters"]
        rounds = counters["shard_rounds"]
        out["shard.rounds"] = rounds
        out["shard.bytes_exchanged"] = counters["shard_bytes"]
        out["shard.cut_edges"] = sum(
            e.partition.cut_edges for e in spans.engines)
        drivers = sum(out.get(m, 0.0) for m in (
            "shard.dobfs_s", "shard.bfs_bitmap_s", "shard.delta_stepping_s"))
        out["shard.ms_per_round"] = drivers / rounds * 1e3 if rounds else 0.0

        engine = next(e for e in spans.engines if e.has_in)
        csr = self.loaded["gap"].data.out
        per_round = []
        for _ in range(3):
            t0 = time.perf_counter()
            _, iterations = shard_pagerank(csr, engine)
            per_round.append((time.perf_counter() - t0) / iterations * 1e3)
        out["shard.pagerank_ms_per_round"] = statistics.median(per_round)

        if (os.cpu_count() or 1) < self.shards:
            self.notes["shard.speedup_vs_serial"] = (
                f"not measured (cores < {self.shards})")
            out["shard.speedup_vs_serial"] = 0.0
        else:
            serial_wall, _ = self._serial_pass()
            out["shard.speedup_vs_serial"] = serial_wall / statistics.median(
                p.wall_s for p in untraced)
        return out

    def teardown(self) -> None:
        if self._serial is not None:
            self._close_engines(self._serial[1])
            self._serial = None
        super().teardown()


# ======================================================================
class ServeClosed(Workload):
    """A closed loop of two keep-alive clients against ``epg serve``.

    *Why:* the serving path (accept -> admission -> batch linger ->
    worker -> ``run_many`` -> summarise -> HTTP write) dominates, and it
    uses ``systems`` through ``run_many`` batches from threads rather
    than ``run`` per root.  Callers that wait for replies make a closed
    loop; concurrency is pinned at 2 clients, one persistent
    ``http.client`` connection each.

    *One graph per client:* client 0 queries only the smaller graph and
    client 1 only the larger.  With both on one graph two kernels share
    one id-keyed ``KernelScratch`` across the daemon's two worker
    threads and ~1-3 % of requests fail; a noisy non-zero baseline
    failure count would make every later comparison a coin-flip, so the
    gated mix is race-free by construction and the race is reported
    separately (``service.shared_graph_fail_frac``).

    *Timer:* from releasing both clients to the slower one finishing
    its ``requests`` ``POST /query`` calls, drawn by seeded RNG
    uniformly from the 12 valid (system, algorithm) cells with uniform
    random roots.  Daemon start to ``/readyz`` and one warm-up query per
    (graph, cell) -- which loads every resident structure -- are setup.
    """

    name = "serve-closed"
    sizes = {"full": dict(scales=(10, 12), requests=60, probe=100),
             "smoke": dict(scales=(8, 9), requests=20, probe=10)}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.specs = [f"kron:{s}" for s in self.size["scales"]]
        self.graphs = [f"kron{s}" for s in self.size["scales"]]
        self.n_vertices = [1 << s for s in self.size["scales"]]
        self.proc: subprocess.Popen | None = None
        self.data_dir: Path | None = None
        self.port = 0
        self._exits: list[int] = []
        self._ports: list[int] = []
        self.ready_s = 0.0

    # -- HTTP -----------------------------------------------------------
    def _connection(self, timeout: float = 30
                    ) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)

    def _get(self, path: str) -> tuple[int, str]:
        conn = self._connection(timeout=5)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read().decode("utf-8")
        finally:
            conn.close()

    def _requests(self, tag: str, client: int, graph: int, n: int,
                  cells=CELLS) -> list[dict]:
        rng = random.Random(f"{self.seed}/{tag}/{client}")
        out = []
        for _ in range(n):
            system, algorithm = rng.choice(cells)
            out.append({"graph": self.graphs[graph], "system": system,
                        "algorithm": algorithm,
                        "root": rng.randrange(self.n_vertices[graph])})
        return out

    def _closed_loop(self, lists: list[list[dict]], spans=None
                     ) -> tuple[float, list[list[tuple]]]:
        """Each client sends its list back to back on one connection;
        returns (wall, per-client [(latency_ms, status, body)])."""
        # A client that cannot connect never arrives: break the barrier
        # (and the run) rather than wait for it forever.
        barrier = threading.Barrier(len(lists) + 1, timeout=60)
        results: list[list[tuple]] = [[] for _ in lists]
        headers = {"Content-Type": "application/json"}

        def client(c: int) -> None:
            conn = self._connection()
            conn.connect()      # TCP set-up is not part of a request
            barrier.wait()
            for payload in lists[c]:
                body = json.dumps(payload)
                t0 = time.perf_counter()
                try:
                    conn.request("POST", "/query", body, headers)
                    resp = conn.getresponse()
                    data, status = resp.read(), resp.status
                except (OSError, http.client.HTTPException) as exc:
                    data, status = repr(exc).encode(), -1
                    conn.close()
                    conn = self._connection()
                t1 = time.perf_counter()
                if spans is not None:
                    spans.records.append(["client.request", t0, t1, -1])
                results[c].append(((t1 - t0) * 1e3, status, data))
            conn.close()

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(len(lists))]
        for t in threads:
            t.start()
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        return time.perf_counter() - t0, results

    # -- protocol -------------------------------------------------------
    def setup(self, spans=None) -> None:
        self.data_dir = self.tmp / "serve"
        self.data_dir.mkdir(parents=True)
        self.port = free_port()
        self._ports.append(self.port)
        t0 = time.perf_counter()
        with open(self.tmp / "serve.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--data-dir",
                 str(self.data_dir), "--graphs", *self.specs, "--port",
                 str(self.port)],
                env=child_env(), cwd=self.tmp, stdout=log, stderr=log)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"epg serve exited {self.proc.returncode} before ready")
            if time.perf_counter() - t0 > 120:
                raise RuntimeError("epg serve not ready after 120 s")
            try:
                if self._get("/readyz")[0] == 200:
                    break
            except OSError:
                pass
            time.sleep(0.01)
        self.ready_s = time.perf_counter() - t0
        warm = [[{"graph": g, "system": s, "algorithm": a, "root": 0}
                 for g in self.graphs for s, a in CELLS]]
        for _, status, data in self._closed_loop(warm)[1][0]:
            if status != 200:
                raise RuntimeError(f"warm-up query failed: {status} {data!r}")

    def run_pass(self, k: int, spans=None) -> PassResult:
        lists = [self._requests(f"pass{k}", c, c, self.size["requests"])
                 for c in (0, 1)]
        wall, results = self._closed_loop(lists, spans)
        # A failed request counts as missing any latency limit.
        lat = [ms if status == 200 else 30e3
               for client in results for ms, status, _ in client]
        return PassResult(wall, lat, len(lat), (lists, results))

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def _expectations(self):
        """Per graph: component size of every vertex; per (graph,
        system): PageRank iteration count from an in-process run."""
        import numpy as np

        from repro.algorithms import weakly_connected_components
        from repro.datasets.homogenize import load_manifest
        from repro.systems.registry import create_system

        sizes, iterations = {}, {}
        for graph in self.graphs:
            ddir = next((self.data_dir / "graphs" / graph / "datasets")
                        .glob("*/manifest.json")).parent
            dataset = load_manifest(ddir)
            labels = weakly_connected_components(_reference_csr(dataset))
            _, inverse, counts = np.unique(labels, return_inverse=True,
                                           return_counts=True)
            sizes[graph] = counts[inverse]
            for system, algorithm in PAGERANK_CELLS:
                sysm = create_system(system, n_threads=N_THREADS)
                iterations[graph, system] = sysm.run(
                    sysm.load(dataset), algorithm).iterations
        return sizes, iterations

    def _verify(self, payload: dict, status: int, data: bytes,
                expect) -> str | None:
        """None when the response is right, else what is wrong."""
        sizes, iterations = expect
        if status != 200:
            return f"status {status}: {data[:200]!r}"
        try:
            result = json.loads(data)["result"]
            if payload["algorithm"] == "pagerank":
                want = iterations[payload["graph"], payload["system"]]
                got = result["iterations"]
            else:
                want = int(sizes[payload["graph"]][payload["root"]])
                got = result["reached"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed body ({exc!r}): {data[:200]!r}"
        return None if got == want else f"answered {got}, expected {want}"

    def check(self, passes, checks: Checks) -> None:
        self._expect = self._expectations()
        for k, p in enumerate(passes):
            lists, results = p.payload
            for sent, got in zip(lists, results):
                for payload, (_, status, data) in zip(sent, got):
                    problem = self._verify(payload, status, data,
                                           self._expect)
                    checks.op(problem is None,
                              f"pass {k}: {payload}: {problem}")

    def layers(self, spans, traced, untraced) -> dict[str, float]:
        out = {"service.ready_s": self.ready_s}
        stats = json.loads(self._get("/stats")[1])
        out["service.resident_bytes"] = stats["residency"]["resident_bytes"]
        sums = {"epg_serve_batch_size_sum": 0.0,
                "epg_serve_batch_size_count": 0.0,
                "epg_serve_shed_total": 0.0}
        for line in self._get("/metrics")[1].splitlines():
            key = line.split("{", 1)[0].split(" ", 1)[0]
            if key in sums:
                sums[key] += float(line.rsplit(" ", 1)[1])
        out["service.batch_size_mean"] = (
            sums["epg_serve_batch_size_sum"]
            / max(sums["epg_serve_batch_size_count"], 1.0))
        out["service.shed_total"] = sums["epg_serve_shed_total"]
        e2e = [x for p in untraced for x in p.latencies_ms]
        # Share of a traced pass in which a client was between requests.
        busy = sum(spans.durations("client.request")) / 2
        out["bench.unattributed_frac"] = 1.0 - busy / sum(
            p.wall_s for p in traced)
        out["service.p99_ms"] = percentile(
            e2e + [x for p in traced for x in p.latencies_ms], 99)
        self.notes["service.p99_ms_samples"] = (
            len(e2e) + sum(len(p.latencies_ms) for p in traced))

        # Shared-graph probe: both clients on the *same* graph, which is
        # what exposes the KernelScratch thread race.  After the timed
        # region and outside every end-to-end number.
        gap = [c for c in CELLS if c[0] == "gap"]
        probe = [self._requests("probe", c, 0, self.size["probe"], gap)
                 for c in (0, 1)]
        _, answers = self._closed_loop(probe)
        bad = sum(self._verify(payload, status, data, self._expect)
                  is not None
                  for sent, got in zip(probe, answers)
                  for payload, (_, status, data) in zip(sent, got))
        attempts = sum(len(x) for x in probe)
        out["service.shared_graph_fail_frac"] = bad / attempts
        self.notes["service.shared_graph_probe"] = f"{bad}/{attempts} failed"

        # The same request lists against an in-process daemon (no HTTP):
        # what is left of the end-to-end latency is the HTTP layer.
        handle, run_many = self._in_process(spans, untraced[0].payload[0])
        out["service.handle_query_ms_p50"] = handle
        out["systems.run_many_ms_p50"] = run_many
        out["service.http_overhead_ms"] = percentile(e2e, 50) - handle
        out["service.dispatch_overhead_ms"] = handle - run_many
        return out

    def _in_process(self, spans, lists) -> tuple[float, float]:
        from repro.service import QueryDaemon, ServeConfig

        daemon = QueryDaemon(ServeConfig(data_dir=self.data_dir,
                                         graphs=tuple(self.specs)))
        daemon.start()
        try:
            for graph in self.graphs:
                for system, algorithm in CELLS:
                    daemon.handle_query(
                        {"graph": graph, "system": system,
                         "algorithm": algorithm, "root": 0}, "warm")
            spans.install()
            lo = spans.mark()
            try:
                threads = [threading.Thread(
                    target=lambda c=c: [daemon.handle_query(p, f"client{c}")
                                        for p in lists[c]])
                    for c in range(len(lists))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            finally:
                spans.uninstall()
        finally:
            daemon.drain()
        return (percentile(spans.durations("service.handle_query", lo), 50)
                * 1e3,
                percentile(spans.durations("systems.run_many", lo), 50)
                * 1e3)

    def teardown(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                code, _ = wait_rusage(self.proc)
            else:
                code = self.proc.returncode
            self._exits.append(code)
            self.proc = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def hygiene(self, checks: Checks) -> None:
        checks.op(all(code == 0 for code in self._exits),
                  f"daemon exit codes after SIGTERM: {self._exits}")
        busy = [p for p in self._ports if not port_is_free(p)]
        checks.op(not busy, f"ports still bound: {busy}")


# ======================================================================
class StreamReplayWorkload(Workload):
    """A seeded mutation stream through the incremental kernels.

    *Why:* uses the ``graph`` layer for mutation + snapshot rather than
    one-shot CSR build, and ``algorithms.incremental`` rather than the
    static kernels, so a ``graph``/``frontier`` change that helps static
    sweeps but costs dynamic ones shows here.

    *Timer:* ``StreamReplay(scenario, check=False).run()`` with
    bfs+sssp+pagerank -- base-graph ingest, the three cold solves, then
    every batch's apply, snapshot and repair.  ``build_scenario`` and a
    two-batch warm-up replay are setup.
    """

    name = "stream-replay"
    sizes = {"full": dict(scale=13, batches=64, batch_edges=256, checked=8),
             "smoke": dict(scale=9, batches=4, batch_edges=64, checked=4)}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scenario = None
        self._first = None

    def setup(self, spans=None) -> None:
        from repro.streaming import StreamReplay, StreamSpec, build_scenario

        size = self.size
        self.scenario = build_scenario(StreamSpec(
            scale=size["scale"], n_batches=size["batches"],
            batch_edges=size["batch_edges"], delete_fraction=0.25,
            weighted=True, seed=DATASET_SEED))
        warm = dataclasses.replace(self.scenario,
                                   batches=self.scenario.batches[:2])
        StreamReplay(warm, check=False).run()

    def run_pass(self, k: int, spans=None) -> PassResult:
        from repro.streaming import StreamReplay

        replay = StreamReplay(self.scenario, check=False)
        t0 = time.perf_counter()
        rows = replay.run()
        wall = time.perf_counter() - t0
        if self._first is None:
            self._first = rows
        return PassResult(wall, [wall * 1e3], len(rows), rows)

    def check(self, passes, checks: Checks) -> None:
        from repro.errors import ValidationError
        from repro.streaming import StreamReplay

        head = dataclasses.replace(
            self.scenario,
            batches=self.scenario.batches[:self.size["checked"]])
        try:
            oracle = StreamReplay(head, check=True).run()
        except ValidationError as exc:
            oracle = []
            checks.op(False, f"oracle replay: {exc}")
        for want, got in zip(oracle, self._first):
            same = all(getattr(want, f) == getattr(got, f)
                       for f in ("bfs_reached", "sssp_reached", "n_arcs"))
            checks.op(same and want.checked == 3,
                      f"batch {got.batch}: {got} vs checked {want}")
        for got in self._first[len(oracle):]:
            checks.op(got.bfs_reached > 0, f"batch {got.batch}: {got}")
        for k, p in enumerate(passes[1:], 1):
            for want, got in zip(self._first, p.payload):
                checks.op(want == got,
                          f"pass {k} batch {got.batch} differs from pass 0")

    def layers(self, spans, traced, untraced) -> dict[str, float]:
        out = layer_times(spans, traced)
        rows = traced[0].payload
        out["algorithms.incremental.bfs_resettled"] = sum(
            r.bfs_resettled for r in rows)
        out["algorithms.incremental.sssp_resettled"] = sum(
            r.sssp_resettled for r in rows)
        out["algorithms.incremental.pagerank_sweeps"] = sum(
            r.pagerank_sweeps for r in rows)
        return out

    def teardown(self) -> None:
        self.scenario = None


WORKLOADS = {w.name: w for w in (ReproduceCold, KernelSweep, ShardSweep,
                                 ServeClosed, StreamReplayWorkload)}
