"""Experiment configuration.

One :class:`ExperimentConfig` describes a full EPG* study: which
dataset, which systems, which algorithms, how many roots and trials, and
which thread counts -- the knobs the paper's shell scripts take.
Defaults mirror the paper: 32 roots of degree > 1, epsilon = 6e-8 for
PageRank, threads = 32, Kronecker edge factor 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.errors import ConfigError
from repro.machine.spec import MachineSpec, haswell_server
from repro.systems.base import ALGORITHMS
from repro.systems.registry import ALL_SYSTEM_NAMES

__all__ = ["ExperimentConfig", "DATASET_KINDS"]

DATASET_KINDS = ("kronecker", "cit-patents", "dota-league", "snap-file")

#: The paper's PageRank epsilon: "approximately machine epsilon for a
#: single precision floating-point number" (Sec. IV-A).
DEFAULT_EPSILON = 6e-8


def _execution_detail(default):
    """A field that says *how* to execute, never what is computed:
    left out of :meth:`ExperimentConfig.to_dict`, so it cannot perturb
    a checkpoint digest, ``config.json`` or provenance."""
    return field(default=default, metadata={"execution_detail": True})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one EPG* experiment needs."""

    output_dir: Path
    #: One of :data:`DATASET_KINDS`.
    dataset: str = "kronecker"
    #: Graph500 scale for synthetic graphs (paper: 22 for timing/power,
    #: 23 for scalability; defaults here are CI-sized).
    scale: int = 14
    #: Shrink factor for the synthetic real-world stand-ins (None =
    #: module defaults).
    realworld_factor: float | None = None
    #: Path to a SNAP-format file when ``dataset == "snap-file"``.
    snap_path: Path | None = None
    systems: tuple[str, ...] = ALL_SYSTEM_NAMES
    algorithms: tuple[str, ...] = ("bfs", "sssp", "pagerank")
    n_roots: int = 32
    #: Trials per root (Figs 5-6 use 4 trials "because of timing
    #: considerations"; single-thread-count studies use 1).
    n_trials: int = 1
    thread_counts: tuple[int, ...] = (32,)
    seed: int = 20170402
    epsilon: float = DEFAULT_EPSILON
    machine: MachineSpec = field(default_factory=haswell_server)
    #: Record power/energy (Table III, Fig 9).
    measure_power: bool = True
    #: Additionally capture WattProf-style fixed-rate power traces for
    #: each kernel window (Sec. V's fine-grained extension); traces land
    #: under ``<output>/traces/`` as CSV.
    capture_power_traces: bool = False
    #: Trace sample rate in Hz (only used when traces are on).
    trace_sample_hz: float = 100_000.0
    #: Validate every kernel's output against the reference oracles
    #: during the run phase, Graph500-style ("a fast system cannot win
    #: by returning garbage").  Off by default: validation costs more
    #: than the kernels at small scales.
    validate_outputs: bool = False
    #: Retries per cell after the first failed attempt; a cell that
    #: fails ``max_retries + 1`` times is quarantined, not fatal.
    max_retries: int = 2
    #: Per-attempt deadline in simulated seconds (None = the
    #: resilience default); a hung cell is killed at this deadline.
    cell_timeout_s: float | None = None
    #: Fault-injection spec (see :mod:`repro.resilience.faults` for the
    #: grammar); None disables injection.
    fault_spec: str | None = None
    #: Worker processes for the run phase (``epg run --jobs``); 1 runs
    #: the cells in this process.
    jobs: int = _execution_detail(1)
    #: Worker processes *inside* one kernel execution (``epg run
    #: --shards``): the sharded engine splits each BFS/SSSP query
    #: across this many cores.
    shards: int = _execution_detail(1)
    #: On-disk artifact cache root; None disables caching.
    cache_dir: Path | None = _execution_detail(None)
    #: LRU garbage-collection budget in bytes (None = unbounded).
    cache_max_bytes: int | None = _execution_detail(None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if self.dataset not in DATASET_KINDS:
            raise ConfigError(
                f"dataset must be one of {DATASET_KINDS}, got "
                f"{self.dataset!r}")
        if self.dataset == "snap-file" and self.snap_path is None:
            raise ConfigError("snap-file dataset requires snap_path")
        if self.dataset == "kronecker" and not 1 <= self.scale <= 30:
            raise ConfigError("kronecker scale must be in [1, 30]")
        unknown = set(self.systems) - set(ALL_SYSTEM_NAMES)
        if unknown:
            raise ConfigError(f"unknown systems: {sorted(unknown)}")
        bad_algos = set(self.algorithms) - set(ALGORITHMS)
        if bad_algos:
            raise ConfigError(f"unknown algorithms: {sorted(bad_algos)}")
        if self.n_roots < 1 or self.n_trials < 1:
            raise ConfigError("n_roots and n_trials must be >= 1")
        if not self.thread_counts or min(self.thread_counts) < 1:
            raise ConfigError("thread_counts must be positive")
        if max(self.thread_counts) > self.machine.n_threads:
            raise ConfigError(
                f"thread count exceeds the machine's "
                f"{self.machine.n_threads} hardware threads")
        if not 0 < self.epsilon < 1:
            raise ConfigError("epsilon must be in (0, 1)")
        if self.trace_sample_hz <= 0:
            raise ConfigError("trace_sample_hz must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ConfigError("cell_timeout_s must be positive")
        if self.fault_spec is not None:
            from repro.resilience.faults import parse_fault_spec

            parse_fault_spec(self.fault_spec)  # raises ConfigError if bad
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ConfigError(
                f"cache_max_bytes must be >= 1, got {self.cache_max_bytes}")

    @property
    def cache_active(self) -> bool:
        """Whether runs should use the artifact cache."""
        return self.cache_dir is not None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Everything that decides results, JSON-ready, in field order
        (the machine is recorded by :mod:`repro.core.provenance`)."""
        out = {}
        for f in fields(self):
            if f.name == "machine" or f.metadata.get("execution_detail"):
                continue
            value = getattr(self, f.name)
            if isinstance(value, Path):
                value = str(value)
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out
