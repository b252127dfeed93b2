"""Phase 3: run each algorithm on each system (with power capture).

Execution protocol, mirroring the paper:

* BFS/SSSP: one fresh execution per root (32 executions; each pays its
  own file read + construction, giving Fig 2/3's construction box
  plots) -- except the Graph500, which constructs once and searches all
  roots back-to-back in a single execution (its spec'd Benchmark 1
  protocol; also why Fig 9 has a single Graph500 power point).
* PageRank: "we simply run the algorithm 32 times" (Sec. III-B).
* Power: every kernel region is wrapped in the Fig 10
  ``power_rapl_start/end`` calls on the simulated RAPL counters.
* Run-to-run spread comes from the seeded
  :class:`~repro.machine.variance.VarianceModel`; the underlying kernel
  executes once per root (results are deterministic) and its priced
  time is re-jittered per trial -- behaviourally identical to rerunning
  the binary, minus the Python-side redundancy.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.logs import LogWriter
from repro.datasets.homogenize import HomogenizedDataset
from repro.errors import CellTimeoutError, SystemCapabilityError
from repro.machine.clock import SimulatedClock
from repro.machine.variance import VarianceModel
from repro.observability import Tracer
from repro.power.energy import instantaneous_power
from repro.power.papi import (
    power_rapl_end,
    power_rapl_init,
    power_rapl_print,
    power_rapl_start,
)
from repro.systems import create_system
from repro.systems.base import (
    ROOTED_ALGORITHMS,
    GraphSystem,
    KernelResult,
)

__all__ = ["Runner"]

#: Simulated idle gap between consecutive executions (scripts sleep a
#: beat between runs so RAPL windows never overlap).
_IDLE_GAP_S = 0.05


class Runner:
    """Executes one experiment's run phase and writes native logs."""

    def __init__(self, config: ExperimentConfig,
                 dataset: HomogenizedDataset, tracer: Tracer | None = None):
        self.config = config
        self.dataset = dataset
        self.tracer = tracer if tracer is not None else Tracer()
        self.variance = VarianceModel(config.seed)
        self._reference_cache: dict = {}
        #: (system, n_threads) -> (system instance, LoadedGraph).
        #: ``load()`` is deterministic and emits no trace events, so
        #: reusing it changes nothing observable (one load per pairing
        #: per Runner, i.e. per worker process under ``--jobs``).
        self._loaded_cache: dict = {}
        #: The real half of those loads, kept by ``GraphSystem.load``
        #: per (system, build knobs): a thread sweep builds each
        #: structure once and prices it per thread count.  The loads
        #: keep it as their answer memo too (``GraphSystem._answer``),
        #: so k-core and MIS run once per graph, not once per system.
        self._built: dict = {}
        #: Optional on-disk artifact cache (layer 2: loaded graph
        #: structures).  ``None`` unless the config names a cache dir.
        from repro.cache import ArtifactCache

        self.cache = ArtifactCache.from_config(config, tracer=self.tracer)
        #: Simulated seconds the most recent cell (or faulted partial
        #: cell) consumed; the resilience supervisor prices its attempt
        #: timeline from this.
        self.last_cell_seconds: float = 0.0

    def close(self) -> None:
        """Release the loaded graphs (and the shard pools cached on
        them) now, not whenever the collector gets to them."""
        for _, loaded in self._loaded_cache.values():
            loaded.close()
        self._loaded_cache.clear()
        self._built.clear()

    # ------------------------------------------------------------------
    # Graph500-style output validation (config.validate_outputs)
    # ------------------------------------------------------------------
    def _reference_csr(self):
        if "csr" not in self._reference_cache:
            from repro.graph.csr import CSRGraph

            edges = self.dataset.load_edges()
            self._reference_cache["csr"] = CSRGraph.from_edge_list(
                edges, symmetrize=not self.dataset.directed)
        return self._reference_cache["csr"]

    def _validate(self, result: KernelResult, algorithm: str,
                  root: int) -> None:
        """Check a kernel result against the reference oracles; raises
        :class:`repro.errors.ValidationError` on disagreement."""
        from repro.algorithms import pagerank, sssp_dijkstra
        from repro.graph.validation import (
            validate_bfs_parents,
            validate_pagerank,
            validate_sssp_distances,
        )

        csr = self._reference_csr()
        cache = self._reference_cache
        if algorithm == "bfs" and "parent" in result.output:
            validate_bfs_parents(csr, root, result.output["parent"],
                                 directed=self.dataset.directed)
        elif algorithm == "sssp":
            key = ("sssp", root)
            if key not in cache:
                cache[key] = sssp_dijkstra(csr, root)
            validate_sssp_distances(result.output["dist"], cache[key],
                                    rtol=1e-4, atol=1e-5)
        elif algorithm == "pagerank":
            if "pr" not in cache:
                cache["pr"] = pagerank(csr)[0]
            validate_pagerank(result.output["rank"], cache["pr"],
                              tol=5e-3)
        elif algorithm in ("kcore", "mis", "cc"):
            # The structural kernels are deterministic and unique
            # (docs/algorithms.md), so the oracle contract is exact
            # array equality, not a tolerance.
            from repro.errors import ValidationError

            if algorithm == "kcore":
                from repro.algorithms import core_numbers

                if "kcore" not in cache:
                    cache["kcore"] = core_numbers(csr)
                got, want = result.output["core"], cache["kcore"]
            elif algorithm == "mis":
                from repro.algorithms import maximal_independent_set

                if "mis" not in cache:
                    cache["mis"] = maximal_independent_set(
                        csr).astype(np.int64)
                got, want = result.output["in_set"], cache["mis"]
            else:
                from repro.algorithms.wcc import (
                    weakly_connected_components,
                )

                if "cc" not in cache:
                    cache["cc"] = weakly_connected_components(csr)
                got, want = result.output["labels"], cache["cc"]
            if not np.array_equal(got, want):
                raise ValidationError(
                    f"{algorithm} output disagrees with the reference")

    # ------------------------------------------------------------------
    def log_path(self, system: str, algorithm: str, n_threads: int) -> Path:
        return (self.config.output_dir / "logs" / system /
                f"{algorithm}-t{n_threads}.log")

    def run_system_algorithm(self, system_name: str, algorithm: str,
                             n_threads: int, fault=None) -> Path | None:
        """Run one (system, algorithm, threads) cell; return the log path
        or ``None`` when the system cannot run this cell.

        ``fault`` is an optional injected :class:`repro.resilience.faults.
        Fault`: a ``crash`` advances the cell clock partway, leaves a
        truncated native log behind (the killed process's last write),
        and raises; a ``hang`` burns the whole deadline and raises
        :class:`~repro.errors.CellTimeoutError`; a ``corrupt`` lets the
        cell complete but damages one log line afterwards.
        """
        self.last_cell_seconds = 0.0
        cached = self._loaded_cache.get((system_name, n_threads))
        if cached is not None:
            system, loaded = cached
            if not system.supports(algorithm):
                return None
        else:
            system = create_system(system_name,
                                   machine=self.config.machine,
                                   n_threads=n_threads,
                                   shards=self.config.shards)
            if not system.supports(algorithm):
                return None
            try:
                loaded = system.load(self.dataset, cache=self.cache,
                                     built=self._built)
            except SystemCapabilityError:
                # e.g. the Graph500 refusing a non-Kronecker dataset.
                return None
            self._loaded_cache[(system_name, n_threads)] = (system, loaded)

        writer = LogWriter(system_name, self.dataset.name, n_threads,
                           algorithm)
        clock = SimulatedClock(
            idle_pkg_watts=self.config.machine.idle_pkg_watts,
            idle_dram_watts=self.config.machine.idle_dram_watts)
        self.tracer.bind_clock(clock)
        system.tracer = self.tracer

        if fault is not None and fault.kind in ("crash", "hang"):
            self._fail_cell(fault, writer, clock, system_name, algorithm,
                            n_threads)

        if system_name == "graph500":
            self._run_graph500(system, loaded, writer, clock)
        else:
            self._run_per_root(system, loaded, writer, clock, algorithm)

        path = self.log_path(system_name, algorithm, n_threads)
        writer.write(path)
        if fault is not None and fault.kind == "corrupt":
            from repro.resilience.faults import corrupt_log

            corrupt_log(path, seed=self.config.seed)
        self.last_cell_seconds = clock.now
        return path

    def _fail_cell(self, fault, writer: LogWriter, clock: SimulatedClock,
                   system_name: str, algorithm: str,
                   n_threads: int) -> None:
        """Price an injected crash/hang on the cell clock and raise."""
        from repro.resilience.faults import InjectedCrashError

        cell = f"{system_name}/{algorithm}/t{n_threads}"
        clock.advance(fault.seconds)
        self.last_cell_seconds = clock.now
        if fault.kind == "hang":
            raise CellTimeoutError(
                f"{cell}: no output after {fault.seconds:.3g}s "
                "(injected hang)")
        # A killed process leaves whatever it had flushed: the header.
        writer.write(self.log_path(system_name, algorithm, n_threads))
        raise InjectedCrashError(
            f"{cell}: killed {fault.seconds:.3g}s into the run "
            "(injected crash)")

    # ------------------------------------------------------------------
    def _roots_and_trials(self, algorithm: str) -> list[tuple[int, int]]:
        """(root, trial) pairs for one cell."""
        pairs: list[tuple[int, int]] = []
        if algorithm in ROOTED_ALGORITHMS:
            for trial in range(self.config.n_trials):
                for root in self.dataset.roots[:self.config.n_roots]:
                    pairs.append((int(root), trial))
        else:
            for trial in range(self.config.n_roots * self.config.n_trials):
                pairs.append((-1, trial))
        return pairs

    def _jitter(self, seconds: float, system: GraphSystem, algorithm: str,
                metric: str, root: int, trial: int) -> float:
        key = (system.name, algorithm, self.dataset.name,
               system.n_threads, root, trial, metric)
        return self.variance.jitter(seconds, key,
                                    sensitivity=system.noise_sensitivity)

    def _power_draw(self, system: GraphSystem, algorithm: str, root: int,
                    trial: int) -> tuple[float, float]:
        pkg, dram = instantaneous_power(self.config.machine, system.power,
                                        system.n_threads)
        key = (system.name, algorithm, self.dataset.name,
               system.n_threads, root, trial)
        machine = self.config.machine
        # Sampling jitter never escapes the physical package envelope.
        return (min(self.variance.power_jitter(pkg, key),
                    machine.max_pkg_watts),
                min(self.variance.power_jitter(dram, ("dram",) + key),
                    machine.max_dram_watts))

    def _measured_advance(self, clock: SimulatedClock, seconds: float,
                          pkg_w: float, dram_w: float,
                          trace_name: str | None = None):
        """Advance the clock under a RAPL measurement window, optionally
        also sampling a WattProf-style trace."""
        wp = None
        if self.config.capture_power_traces and trace_name:
            from repro.power.wattprof import WattProfBackend

            wp = WattProfBackend(clock,
                                 sample_hz=self.config.trace_sample_hz)
            wp.start()
        ps = power_rapl_init(clock)
        power_rapl_start(ps)
        clock.advance(seconds, pkg_w, dram_w)
        power_rapl_end(ps)
        power_rapl_print(ps)
        if wp is not None:
            trace = wp.stop()
            trace.to_csv(self.config.output_dir / "traces"
                         / f"{trace_name}.csv")
        return ps

    # ------------------------------------------------------------------
    def _run_graph500(self, system: GraphSystem, loaded, writer: LogWriter,
                      clock: SimulatedClock) -> None:
        """One execution, all roots, one construction, one power window."""
        cfg = self.config
        scale = int(np.ceil(np.log2(max(loaded.n_vertices, 2))))
        roots = self.dataset.roots[:cfg.n_roots]
        build = self._jitter(loaded.build_s or 0.0, system, "bfs",
                             "build", -1, 0)
        with self.tracer.span("phase:read", category="phase",
                              system=system.name, algorithm="bfs"):
            clock.advance(loaded.read_s)  # untimed generator/read phase
        with self.tracer.span("phase:build", category="phase",
                              system=system.name, algorithm="bfs"):
            clock.advance(build)          # kernel 1 (timed)
        writer.native(scale=scale, edgefactor=16,
                      nbfs=len(roots) * cfg.n_trials, build=build)

        pkg_w, dram_w = self._power_draw(system, "bfs", -1, 0)
        ps = power_rapl_init(clock)
        power_rapl_start(ps)
        times = []
        index = 0
        kernel_cache: dict[int, KernelResult] = {}
        for trial in range(cfg.n_trials):
            for root in roots:
                root = int(root)
                if root not in kernel_cache:
                    res = system.run(loaded, "bfs", root=root)
                    if self.config.validate_outputs:
                        self._validate(res, "bfs", root)
                    kernel_cache[root] = res
                else:
                    self.tracer.counter("epg_kernel_cache_hits_total",
                                        system=system.name,
                                        algorithm="bfs")
                t = self._jitter(kernel_cache[root].time_s, system, "bfs",
                                 "time", root, trial)
                with self.tracer.span("phase:kernel", category="phase",
                                      system=system.name, algorithm="bfs",
                                      root=root, trial=trial):
                    clock.advance(t, pkg_w, dram_w)
                writer.native(trial=index, root=root, time=t)
                times.append((t, kernel_cache[root]))
                index += 1
        power_rapl_end(ps)
        ts = [t for t, _ in times]
        edges = [r.counters.get("edges_examined", loaded.n_arcs)
                 for _, r in times]
        inv = [t / max(e, 1) for t, e in zip(ts, edges)]
        writer.native(min=min(ts), mean=float(np.mean(ts)), max=max(ts),
                      teps=1.0 / float(np.mean(inv)))
        if self.config.measure_power:
            writer.power_lines(ps.package_joules, ps.dram_joules,
                               ps.duration_s, root=-1, trial=0)

    # ------------------------------------------------------------------
    def _run_per_root(self, system: GraphSystem, loaded, writer: LogWriter,
                      clock: SimulatedClock, algorithm: str) -> None:
        """Fresh execution per root/trial for the other four systems."""
        kernel_cache: dict[int, KernelResult] = {}
        for root, trial in self._roots_and_trials(algorithm):
            cache_key = root if algorithm in ROOTED_ALGORITHMS else -1
            if cache_key not in kernel_cache:
                kwargs = {}
                if algorithm in ROOTED_ALGORITHMS:
                    kwargs["root"] = root
                if algorithm == "pagerank":
                    kwargs["epsilon"] = self.config.epsilon
                result = system.run(loaded, algorithm, **kwargs)
                if self.config.validate_outputs:
                    self._validate(result, algorithm, root)
                kernel_cache[cache_key] = result
            else:
                self.tracer.counter("epg_kernel_cache_hits_total",
                                    system=system.name,
                                    algorithm=algorithm)
            result = kernel_cache[cache_key]

            read = self._jitter(loaded.read_s, system, algorithm, "read",
                                root, trial)
            build = (self._jitter(loaded.build_s, system, algorithm,
                                  "build", root, trial)
                     if loaded.build_s is not None else None)
            t = self._jitter(result.time_s, system, algorithm, "time",
                             root, trial)

            clock.advance(_IDLE_GAP_S)
            # Load phases draw moderate power (streaming, not compute
            # bound): halfway between idle and the kernel draw.
            pkg_w, dram_w = self._power_draw(system, algorithm, root, trial)
            load_pkg = (self.config.machine.idle_pkg_watts + pkg_w) / 2
            load_dram = (self.config.machine.idle_dram_watts + dram_w) / 2
            with self.tracer.span("phase:read", category="phase",
                                  system=system.name, algorithm=algorithm,
                                  root=root, trial=trial):
                clock.advance(read, load_pkg, load_dram)
            if build is not None:
                with self.tracer.span("phase:build", category="phase",
                                      system=system.name,
                                      algorithm=algorithm, root=root,
                                      trial=trial):
                    clock.advance(build, load_pkg, load_dram)

            trace_name = (f"{system.name}-{algorithm}"
                          f"-t{system.n_threads}-r{root}-{trial}")
            with self.tracer.span("phase:kernel", category="phase",
                                  system=system.name, algorithm=algorithm,
                                  root=root, trial=trial) as ksp:
                ps = self._measured_advance(clock, t, pkg_w, dram_w,
                                            trace_name=trace_name)
                ksp.set(energy_pkg_j=round(ps.package_joules, 6),
                        energy_dram_j=round(ps.dram_joules, 6))

            writer.native(read=read, build=build,
                          load=read + (build or 0.0), root=root,
                          trial=trial, time=t,
                          iterations=result.iterations,
                          **system.untimed_phases(loaded, build))
            if self.config.measure_power:
                writer.power_lines(ps.package_joules, ps.dram_joules,
                                   ps.duration_s, root=root, trial=trial)
