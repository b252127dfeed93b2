"""Phase 5: statistics over parsed records.

Produces the quantities behind every figure of Sec. IV:

* :class:`BoxStats` -- the five-number summaries behind the box plots
  (Figs 2, 3, 4, 9) plus mean/std/relative-standard-deviation (the
  paper compares PageRank's RSD to SSSP's);
* speedup ``T1/Tn`` and parallel efficiency ``T1/(n*Tn)`` tables
  (Figs 5, 6);
* the Table III energy accounting per system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.records import Record, record_values
from repro.errors import ConfigError
from repro.machine.spec import MachineSpec, haswell_server
from repro.power.energy import EnergyReport

__all__ = ["BoxStats", "EfficiencyTable", "Analysis", "summarize"]


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary plus moments of one measurement group."""

    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    std: float

    @property
    def rsd(self) -> float:
        """Relative standard deviation (std/mean), Sec. IV-A."""
        return self.std / self.mean if self.mean else math.inf

    @staticmethod
    def from_values(values) -> "BoxStats":
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.size == 0:
            raise ConfigError("cannot summarize an empty group")
        q1, med, q3 = np.percentile(arr, [25, 50, 75])
        return BoxStats(
            n=int(arr.size), minimum=float(arr.min()), q1=float(q1),
            median=float(med), q3=float(q3), maximum=float(arr.max()),
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0)


def summarize(records: list[Record], metric: str = "time",
              ) -> dict[tuple[str, str, str, int], BoxStats]:
    """Group by (system, algorithm, dataset, threads) and summarize."""
    groups: dict[tuple[str, str, str, int], list[float]] = {}
    for r in records:
        if r.metric != metric:
            continue
        key = (r.system, r.algorithm, r.dataset, r.threads)
        groups.setdefault(key, []).append(r.value)
    return {k: BoxStats.from_values(v) for k, v in groups.items()}


@dataclass
class EfficiencyTable:
    """Speedup and efficiency curves for one (system, algorithm)."""

    system: str
    algorithm: str
    threads: list[int]
    mean_times: list[float]

    @property
    def t1(self) -> float:
        try:
            idx = self.threads.index(1)
        except ValueError:
            raise ConfigError(
                "scalability analysis requires a 1-thread measurement"
            ) from None
        return self.mean_times[idx]

    def speedup(self) -> list[float]:
        """``T1 / Tn`` (Fig 5)."""
        t1 = self.t1
        return [t1 / t for t in self.mean_times]

    def efficiency(self) -> list[float]:
        """``T1 / (n * Tn)`` (Fig 6)."""
        t1 = self.t1
        return [t1 / (n * t) for n, t in zip(self.threads,
                                             self.mean_times)]


@dataclass
class Analysis:
    """All phase-5 views over one record set."""

    records: list[Record]
    machine: MachineSpec = field(default_factory=haswell_server)

    # ------------------------------------------------------------------
    def box(self, metric: str = "time"):
        return summarize(self.records, metric)

    def systems(self) -> list[str]:
        return sorted({r.system for r in self.records})

    def algorithms(self) -> list[str]:
        return sorted({r.algorithm for r in self.records})

    def datasets(self) -> list[str]:
        return sorted({r.dataset for r in self.records})

    def thread_counts(self) -> list[int]:
        return sorted({r.threads for r in self.records})

    # ------------------------------------------------------------------
    def mean_time(self, system: str, algorithm: str,
                  dataset: str | None = None,
                  threads: int | None = None,
                  metric: str = "time") -> float:
        return float(np.mean(record_values(
            self.records, system, algorithm, metric, dataset, threads)))

    def median_time(self, system: str, algorithm: str,
                    dataset: str | None = None,
                    threads: int | None = None) -> float:
        return float(np.median(record_values(
            self.records, system, algorithm, "time", dataset, threads)))

    def scalability(self, system: str, algorithm: str,
                    dataset: str | None = None) -> EfficiencyTable:
        """Speedup/efficiency data for one system (Figs 5-6).

        Aggregates trials by *median*: the paper ran only four trials
        per point for timing reasons (Sec. IV-B), and a single
        background CPU spike on the serial run would otherwise invert
        the whole curve.
        """
        threads = self.thread_counts()
        medians = [self.median_time(system, algorithm, dataset, n)
                   for n in threads]
        return EfficiencyTable(system=system, algorithm=algorithm,
                               threads=threads, mean_times=medians)

    # ------------------------------------------------------------------
    def energy_table(self, algorithm: str = "bfs",
                     threads: int | None = None) -> dict[str, EnergyReport]:
        """Table III: per-system averaged energy accounting for one
        algorithm (per root, averaged over the 32 roots)."""
        out: dict[str, EnergyReport] = {}
        for system in self.systems():
            rel = [r for r in self.records
                   if r.system == system and r.algorithm == algorithm
                   and (threads is None or r.threads == threads)]
            times = [r.value for r in rel if r.metric == "time"]
            pkg_j = [r.value for r in rel if r.metric == "pkg_joules"]
            dram_j = [r.value for r in rel if r.metric == "dram_joules"]
            if not times or not pkg_j:
                continue
            # Graph500 measures one window over all roots: divide its
            # single energy reading by the number of searches.
            n_roots = len(times)
            mean_time = float(np.mean(times))
            if len(pkg_j) == 1 and n_roots > 1:
                pkg_per_root = pkg_j[0] / n_roots
                dram_per_root = (dram_j[0] / n_roots) if dram_j else 0.0
            else:
                pkg_per_root = float(np.mean(pkg_j))
                dram_per_root = float(np.mean(dram_j)) if dram_j else 0.0
            out[system] = EnergyReport.from_measurement(
                pkg_per_root, dram_per_root, mean_time, self.machine)
        return out

    def power_box(self, metric: str = "pkg_watts",
                  algorithm: str = "bfs") -> dict[str, BoxStats]:
        """Fig 9: per-system power distribution during one algorithm."""
        groups: dict[str, list[float]] = {}
        for r in self.records:
            if r.metric == metric and r.algorithm == algorithm:
                groups.setdefault(r.system, []).append(r.value)
        return {k: BoxStats.from_values(v) for k, v in groups.items()}

    def iterations(self, algorithm: str = "pagerank") -> dict[str, float]:
        """Fig 4 right panel: mean iteration count per system."""
        groups: dict[str, list[float]] = {}
        for r in self.records:
            if r.metric == "iterations" and r.algorithm == algorithm:
                groups.setdefault(r.system, []).append(r.value)
        return {k: float(np.mean(v)) for k, v in groups.items()}

    def construction_box(self, algorithm: str | None = None
                         ) -> dict[tuple[str, str], BoxStats]:
        """Figs 2-3 right panels: construction-time distributions for
        systems whose construction is separable."""
        groups: dict[tuple[str, str], list[float]] = {}
        for r in self.records:
            if r.metric != "build":
                continue
            if algorithm is not None and r.algorithm != algorithm:
                continue
            groups.setdefault((r.system, r.algorithm), []).append(r.value)
        return {k: BoxStats.from_values(v) for k, v in groups.items()}
