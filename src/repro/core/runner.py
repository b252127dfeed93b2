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
* Loads: a Runner loads each (system, threads) pairing once, in the
  :class:`~repro.systems.session.DatasetSession` its owner lends it;
  every execution still prices its own read and construction.
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
from repro.systems.session import DatasetSession

__all__ = ["Runner"]

#: Simulated idle gap between consecutive executions (scripts sleep a
#: beat between runs so RAPL windows never overlap).
_IDLE_GAP_S = 0.05


class Runner:
    """Executes one experiment's run phase and writes native logs."""

    def __init__(self, config: ExperimentConfig,
                 dataset: HomogenizedDataset, session: DatasetSession,
                 tracer: Tracer | None = None):
        self.config = config
        self.dataset = dataset
        #: Borrowed: its owner closes it.  ``load()`` emits no trace
        #: events, so reusing a load changes nothing observable.
        self.session = session
        self.tracer = tracer if tracer is not None else Tracer()
        self.variance = VarianceModel(config.seed)
        #: Simulated seconds the most recent cell (or faulted partial
        #: cell) consumed; the resilience supervisor prices its attempt
        #: timeline from this.
        self.last_cell_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Graph500-style output validation (config.validate_outputs)
    # ------------------------------------------------------------------
    def _reference(self, key, compute):
        """The validation reference ``key``, computed on first use and
        kept in the session, so it goes with the dataset's loads."""
        references = self.session.references
        if key not in references:
            references[key] = compute()
        return references[key]

    def _validate(self, result: KernelResult, algorithm: str,
                  root: int) -> None:
        """Check a kernel result against the reference oracles; raises
        :class:`repro.errors.ValidationError` on disagreement."""
        from repro.algorithms import (
            core_numbers,
            maximal_independent_set,
            pagerank,
            sssp_dijkstra,
            weakly_connected_components,
        )
        from repro.errors import ValidationError
        from repro.graph.csr import CSRGraph
        from repro.graph.validation import (
            validate_bfs_parents,
            validate_pagerank,
            validate_sssp_distances,
        )

        csr = self._reference("csr", lambda: CSRGraph.from_edge_list(
            self.dataset.load_edges(),
            symmetrize=not self.dataset.directed))
        if algorithm == "bfs" and "parent" in result.output:
            validate_bfs_parents(csr, root, result.output["parent"],
                                 directed=self.dataset.directed)
        elif algorithm == "sssp":
            validate_sssp_distances(
                result.output["dist"],
                self._reference(("sssp", root),
                                lambda: sssp_dijkstra(csr, root)),
                rtol=1e-4, atol=1e-5)
        elif algorithm == "pagerank":
            validate_pagerank(result.output["rank"],
                              self._reference("pr",
                                              lambda: pagerank(csr)[0]),
                              tol=5e-3)
        elif algorithm in ("kcore", "mis", "cc"):
            # The structural kernels are deterministic and unique
            # (docs/algorithms.md), so the oracle contract is exact
            # array equality, not a tolerance.
            field, oracle = {
                "kcore": ("core", core_numbers),
                "mis": ("in_set", lambda g: maximal_independent_set(
                    g).astype(np.int64)),
                "cc": ("labels", weakly_connected_components),
            }[algorithm]
            want = self._reference(algorithm, lambda: oracle(csr))
            if not np.array_equal(result.output[field], want):
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
        system = create_system(system_name, machine=self.config.machine,
                               n_threads=n_threads,
                               shards=self.config.shards)
        if not system.supports(algorithm):
            return None
        try:
            system, loaded = self.session.load(system)
        except SystemCapabilityError:
            # e.g. the Graph500 refusing a non-Kronecker dataset.
            return None

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
        results: dict[int, KernelResult] = {}
        for trial in range(cfg.n_trials):
            for root in map(int, roots):
                result = self._kernel(results, system, loaded, "bfs", root,
                                      root=root)
                t = self._jitter(result.time_s, system, "bfs", "time", root,
                                 trial)
                with self.tracer.span("phase:kernel", category="phase",
                                      system=system.name, algorithm="bfs",
                                      root=root, trial=trial):
                    clock.advance(t, pkg_w, dram_w)
                writer.native(trial=index, root=root, time=t)
                times.append((t, result))
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

    def _kernel(self, results: dict, system: GraphSystem, loaded,
                algorithm: str, key: int, **params) -> KernelResult:
        """``algorithm``'s result from root ``key`` (-1: rootless), kept
        in ``results``: run and validated once, a counted hit after."""
        if key in results:
            self.tracer.counter("epg_kernel_cache_hits_total",
                                system=system.name, algorithm=algorithm)
        else:
            results[key] = system.run(loaded, algorithm, **params)
            if self.config.validate_outputs:
                self._validate(results[key], algorithm, key)
        return results[key]

    # ------------------------------------------------------------------
    def _run_per_root(self, system: GraphSystem, loaded, writer: LogWriter,
                      clock: SimulatedClock, algorithm: str) -> None:
        """Fresh execution per root/trial for the other four systems."""
        results: dict[int, KernelResult] = {}
        params = ({"epsilon": self.config.epsilon}
                  if algorithm == "pagerank" else {})
        for root, trial in self._roots_and_trials(algorithm):
            if algorithm in ROOTED_ALGORITHMS:
                params["root"] = root
            result = self._kernel(results, system, loaded, algorithm, root,
                                  **params)

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
