"""Resident graphs: materialization, residency budget, recovery.

The daemon serves queries out of RAM: each (graph, system, threads)
triple holds one :class:`~repro.systems.base.LoadedGraph` built by the
same ``GraphSystem.load`` path the batch suite uses (artifact-cache
memmap bundles included, so a warm cache makes residency nearly
zero-copy).  The :class:`ResidentGraphManager` owns three concerns:

* **Materialization** -- a :class:`GraphSpec` (``kron:10``,
  ``cit-patents``) is turned into a homogenized dataset directory via
  the battle-tested :class:`~repro.core.experiment.Experiment`
  setup/homogenize phases, then published in ``served.json``.
* **Residency** -- loaded structures are LRU-bounded by
  ``max_resident_bytes``; in-use entries are never evicted.  A
  structure is loaded once however many first queries race for it, and
  runs one sweep at a time: kernels keep their scratch arenas (and,
  sharded, their worker pool) on the loaded structure, so two sweeps
  over one structure would corrupt each other.
* **Recovery** -- on restart the roster is rebuilt from the manifest;
  a dataset whose on-disk bytes no longer match the published size is
  treated as corrupt, deleted, and rematerialized.
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import ExperimentConfig
from repro.datasets.homogenize import HomogenizedDataset, load_manifest
from repro.errors import DatasetError, ServiceError
from repro.logging_util import get_logger
from repro.service.manifest import ServedGraph, ServedManifest
from repro.systems.base import GraphSystem, LoadedGraph
from repro.systems.registry import available_systems, create_system

__all__ = ["GraphSpec", "ResidentGraphManager"]


@dataclass(frozen=True)
class GraphSpec:
    """A parsed ``--graphs`` entry."""

    name: str
    dataset: str
    scale: int | None = None
    factor: float | None = None

    @staticmethod
    def parse(text: str) -> "GraphSpec":
        """``kron:<scale>`` | ``cit-patents[:factor]`` |
        ``dota-league[:factor]``."""
        head, _, arg = str(text).strip().partition(":")
        if head == "kron":
            try:
                scale = int(arg)
            except ValueError:
                raise ServiceError(
                    f"bad graph spec {text!r}: kron needs an integer "
                    "scale, e.g. kron:10") from None
            if not 1 <= scale <= 30:
                raise ServiceError(
                    f"bad graph spec {text!r}: scale must be in [1, 30]")
            return GraphSpec(name=f"kron{scale}", dataset="kronecker",
                             scale=scale)
        if head in ("cit-patents", "dota-league"):
            factor = None
            if arg:
                try:
                    factor = float(arg)
                except ValueError:
                    raise ServiceError(
                        f"bad graph spec {text!r}: factor must be a "
                        "number") from None
                if not 0 < factor <= 1:
                    raise ServiceError(
                        f"bad graph spec {text!r}: factor must be in "
                        "(0, 1]")
            return GraphSpec(name=head, dataset=head, factor=factor)
        raise ServiceError(
            f"bad graph spec {text!r} (want kron:<scale>, "
            "cit-patents[:factor], or dota-league[:factor])")

    def to_config(self, directory: Path, seed: int,
                  cache_dir: Path | None) -> ExperimentConfig:
        return ExperimentConfig(
            output_dir=directory, dataset=self.dataset,
            scale=self.scale if self.scale is not None else 14,
            realworld_factor=self.factor, seed=seed,
            cache_dir=cache_dir)


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _dataset_dir(directory: Path) -> Path | None:
    """The homogenized dataset directory under one graph directory
    (``datasets/<dataset-name>/``), or None when not materialized."""
    base = directory / "datasets"
    if not base.is_dir():
        return None
    candidates = sorted(p.parent for p in base.glob("*/manifest.json"))
    return candidates[0] if candidates else None


def _estimate_resident_bytes(loaded: LoadedGraph) -> int:
    """Approximate RAM held by a loaded structure: every distinct
    numpy array reachable from ``loaded.data`` (shallow object walk)."""
    total = 0
    seen: set[int] = set()

    def walk(obj, depth: int) -> None:
        nonlocal total
        if depth > 4 or id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, dict):
            for v in obj.values():
                walk(v, depth + 1)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for v in obj:
                walk(v, depth + 1)
        elif hasattr(obj, "__dict__"):
            for v in vars(obj).values():
                walk(v, depth + 1)

    walk(loaded.data, 0)
    return max(total, 1)


@dataclass
class _Resident:
    """One loaded (graph, system, threads) entry."""

    system: GraphSystem
    loaded: LoadedGraph
    nbytes: int
    refs: int = 0
    #: Monotonically increasing use stamp (manager-assigned LRU order).
    stamp: int = 0
    #: Held for the length of a lease: one sweep at a time.
    run_lock: threading.Lock = field(default_factory=threading.Lock)


class ResidentGraphManager:
    """Owns the served roster and the loaded-structure LRU."""

    def __init__(self, data_dir: str | Path, *,
                 max_resident_bytes: int | None = None,
                 cache=None, seed: int = 20170402, telemetry=None,
                 shards: int = 1):
        self.data_dir = Path(data_dir)
        self.max_resident_bytes = max_resident_bytes
        self.cache = cache
        self.seed = int(seed)
        self.telemetry = telemetry
        #: Shards per kernel execution, forwarded to every resident
        #: system (bit-identical outputs at any count).
        self.shards = int(shards)
        self.manifest = ServedManifest.load(self.data_dir)
        #: name -> HomogenizedDataset of every published graph.
        self.datasets: dict[str, HomogenizedDataset] = {}
        self._residents: dict[tuple, _Resident] = {}
        #: key -> set once the thread loading that key has finished.
        self._loading: dict[tuple, threading.Event] = {}
        self._lock = threading.Lock()
        self._stamp = 0
        self._log = get_logger("repro.service")

    # ------------------------------------------------------------------
    # Roster
    # ------------------------------------------------------------------
    def _graph_dir(self, name: str) -> Path:
        return self.data_dir / "graphs" / name

    def _materialize(self, spec: GraphSpec) -> HomogenizedDataset:
        from repro.core.experiment import Experiment

        directory = self._graph_dir(spec.name)
        cfg = spec.to_config(directory, self.seed,
                             self.cache.root if self.cache else None)
        exp = Experiment(cfg)
        exp.setup()
        return exp.homogenize()

    def add_graph(self, spec_text: str) -> HomogenizedDataset:
        """Materialize (or reopen) one graph and publish it."""
        spec = GraphSpec.parse(spec_text)
        directory = self._graph_dir(spec.name)
        dataset = None
        dataset_dir = _dataset_dir(directory)
        if dataset_dir is not None:
            try:
                dataset = load_manifest(dataset_dir)
            except (DatasetError, ValueError, KeyError, OSError):
                self._log.warning("%s: unreadable dataset dir; "
                                  "rebuilding", spec.name)
                shutil.rmtree(directory, ignore_errors=True)
        if dataset is None:
            dataset = self._materialize(spec)
        self.datasets[spec.name] = dataset
        self.manifest.record(ServedGraph(
            name=spec.name, spec=spec_text,
            directory=str(directory.relative_to(self.data_dir)),
            bytes=_tree_bytes(directory)))
        return dataset

    def recover(self) -> int:
        """Rebuild the roster from ``served.json``; returns the number
        of graphs that had to be *re-materialized* (missing or corrupt
        on disk).  Intact graphs are reopened in place."""
        rebuilt = 0
        for name in sorted(self.manifest.graphs):
            entry = self.manifest.graphs[name]
            directory = self.data_dir / entry.directory
            dataset_dir = _dataset_dir(directory)
            intact = dataset_dir is not None \
                and _tree_bytes(directory) == entry.bytes
            if intact:
                try:
                    self.datasets[name] = load_manifest(dataset_dir)
                    continue
                except (DatasetError, ValueError, KeyError, OSError):
                    intact = False
            self._log.warning(
                "recovery: %s %s; rematerializing from %r", name,
                "missing" if not directory.exists() else "corrupt",
                entry.spec)
            shutil.rmtree(directory, ignore_errors=True)
            self.add_graph(entry.spec)
            rebuilt += 1
        if self.cache is not None:
            # Damaged cache bundles would resurface on every load;
            # verify evicts them now, while we are not serving.
            problems = self.cache.verify()
            for p in problems:
                self._log.warning("recovery: %s", p)
        if self.telemetry is not None and rebuilt:
            self.telemetry.counter("epg_serve_recoveries_total",
                                   rebuilt)
        return rebuilt

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    def _evict_to_fit(self, incoming: int) -> None:
        """Drop least-recently-used idle entries until ``incoming``
        fits (caller holds the lock)."""
        if self.max_resident_bytes is None:
            return
        def resident() -> int:
            return sum(r.nbytes for r in self._residents.values())
        while self._residents \
                and resident() + incoming > self.max_resident_bytes:
            idle = [(r.stamp, k) for k, r in self._residents.items()
                    if r.refs == 0]
            if not idle:
                return  # everything pinned; admit over budget
            _, victim = min(idle)
            dropped = self._residents.pop(victim)
            self._log.info("evicting resident %s (%d bytes)",
                           "/".join(map(str, victim)), dropped.nbytes)
            dropped.loaded.close()  # idle (refs == 0): no sweep in it

    def close(self) -> None:
        """Drop every resident and shut its shard pools down."""
        with self._lock:
            residents, self._residents = self._residents, {}
        for entry in residents.values():
            entry.loaded.close()

    def lease(self, graph: str, system: str, n_threads: int):
        """Context manager yielding ``(GraphSystem, LoadedGraph)`` with
        the entry pinned against eviction, and closed to every other
        lease of the same entry, for the duration."""
        return _Lease(self, graph, system, int(n_threads))

    def _pin_locked(self, entry: _Resident) -> _Resident:
        entry.refs += 1
        self._stamp += 1
        entry.stamp = self._stamp
        return entry

    def _acquire(self, graph: str, system: str,
                 n_threads: int) -> _Resident:
        dataset = self.datasets.get(graph)
        if dataset is None:
            raise ServiceError(f"graph {graph!r} is not served")
        if system not in available_systems():
            raise ServiceError(f"unknown system {system!r}")
        key = (graph, system, n_threads)
        while True:
            with self._lock:
                entry = self._residents.get(key)
                if entry is not None:
                    return self._pin_locked(entry)
                loading = self._loading.get(key)
                if loading is None:
                    loading = self._loading[key] = threading.Event()
                    break
            # Someone else is loading this key: take their result (or,
            # if their load failed, our turn at it).
            loading.wait()
        # Load outside the lock: materializing a structure can take a
        # while and must not block queries on already-resident graphs.
        try:
            sys_inst = create_system(system, n_threads=n_threads,
                                     shards=self.shards)
            loaded = sys_inst.load(dataset, cache=self.cache)
            nbytes = _estimate_resident_bytes(loaded)
            with self._lock:
                self._evict_to_fit(nbytes)
                entry = _Resident(system=sys_inst, loaded=loaded,
                                  nbytes=nbytes)
                self._residents[key] = entry
                self._publish_gauges()
                return self._pin_locked(entry)
        finally:
            with self._lock:
                del self._loading[key]
            loading.set()

    def _release(self, graph: str, system: str, n_threads: int) -> None:
        with self._lock:
            entry = self._residents.get((graph, system, n_threads))
            if entry is not None and entry.refs > 0:
                entry.refs -= 1

    def _publish_gauges(self) -> None:
        if self.telemetry is None:
            return
        self.telemetry.gauge("epg_serve_graphs_resident",
                             len({k[0] for k in self._residents}))
        self.telemetry.gauge(
            "epg_serve_resident_bytes",
            sum(r.nbytes for r in self._residents.values()))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "graphs": sorted(self.datasets),
                "resident_entries": [
                    {"graph": k[0], "system": k[1], "n_threads": k[2],
                     "bytes": r.nbytes, "in_use": r.refs}
                    for k, r in sorted(self._residents.items())],
                "resident_bytes": sum(r.nbytes for r
                                      in self._residents.values()),
                "max_resident_bytes": self.max_resident_bytes,
            }


class _Lease:
    __slots__ = ("_mgr", "_key", "_entry")

    def __init__(self, mgr: ResidentGraphManager, graph: str,
                 system: str, n_threads: int):
        self._mgr = mgr
        self._key = (graph, system, n_threads)
        self._entry: _Resident | None = None

    def __enter__(self):
        self._entry = self._mgr._acquire(*self._key)
        self._entry.run_lock.acquire()
        return self._entry.system, self._entry.loaded

    def __exit__(self, *exc) -> bool:
        self._entry.run_lock.release()
        self._mgr._release(*self._key)
        return False
