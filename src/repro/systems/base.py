"""The common system interface EPG* drives.

A :class:`GraphSystem` exposes exactly the surface the paper's shell
harness sees: load a homogenized dataset (producing read/construction
phase times), run one algorithm (producing a kernel time), and emit a
native-format log.  Internally each system computes real results with
its own data structures and strategies while recording a
:class:`~repro.machine.threads.WorkProfile` of the operations performed;
the shared machinery here prices that profile on the simulated machine.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar

import numpy as np

from repro.algorithms.cdlp import DEFAULT_CDLP_ITERATIONS, propagate_labels
from repro.algorithms.kcore import peel_cores
from repro.algorithms.lcc import clustering_blocks
from repro.algorithms.mis import luby_rounds, mis_priorities
from repro.datasets.homogenize import HomogenizedDataset
from repro.errors import SystemCapabilityError
from repro.graph.edgelist import EdgeList
from repro.graph.frontier import resolve_batch_rows
from repro.graph.scratch import consume_counters
from repro.graph.simple import SimpleView, simple_undirected_view
from repro.machine.spec import MachineSpec, haswell_server
from repro.machine.threads import SimResult, ThreadModel, WorkProfile
from repro.observability import Tracer
from repro.power.energy import PowerParams
from repro.systems import calibration
from repro.systems.session import DatasetSession

__all__ = ["GraphSystem", "LoadedGraph", "KernelResult", "ALGORITHMS",
           "ROOTED_ALGORITHMS"]

#: Algorithm identifiers used across the package.  ``bc`` and ``tc``
#: are the paper's Sec. V extension kernels (GAP provides them);
#: ``kcore``/``mis``/``cc`` widen the structural matrix over the shared
#: kernels (``cc`` is the Afforest/Shiloach-Vishkin alternative to the
#: label-propagation ``wcc``; see docs/algorithms.md).
ALGORITHMS = ("bfs", "sssp", "pagerank", "wcc", "cdlp", "lcc",
              "bc", "tc", "kcore", "mis", "cc")
#: The algorithms that run from a search root, one execution per root.
ROOTED_ALGORITHMS = ("bfs", "sssp")


@dataclass
class LoadedGraph:
    """A dataset ingested into one system's internal representation."""

    system: str
    name: str
    n_vertices: int
    n_arcs: int
    directed: bool
    weighted: bool
    #: Simulated seconds spent reading the input file from disk.
    read_s: float
    #: Simulated seconds spent building the data structure from the
    #: in-RAM tuples; ``None`` when the system fuses read+build
    #: (GraphBIG, PowerGraph -- paper Sec. III-B).
    build_s: float | None
    #: System-specific structure (CSR pair, DCSR, partition set, ...).
    data: Any
    #: Bytes of the input file actually read.
    input_bytes: int = 0
    #: The ``answers`` map of the :class:`DatasetSession` this graph
    #: was loaded in: the shared bodies keep their answers in it by arc
    #: digest (:meth:`GraphSystem._answer`).
    answers: dict = field(default_factory=dict)

    @property
    def load_s(self) -> float:
        return self.read_s + (self.build_s or 0.0)

    def close(self) -> None:
        """Shut down the shard pools the systems cached on this graph
        (workers and ``/dev/shm`` arenas); a later sharded run starts
        fresh ones.  Idempotent."""
        for engine in self.__dict__.pop("_shard_engines", {}).values():
            engine.close()


@dataclass
class KernelResult:
    """One algorithm execution: real outputs, priced time."""

    system: str
    algorithm: str
    time_s: float
    sim: SimResult
    profile: WorkProfile
    output: dict[str, np.ndarray]
    root: int | None = None
    iterations: int | None = None
    counters: dict[str, float] = field(default_factory=dict)


def _frozen(value: Any) -> Any:
    """``value`` with every array read-only and every list a tuple, so
    no reader of a memoized answer can change it for the next."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, SimpleView):
        _frozen((value.indptr, value.indices, value.degrees))
    elif isinstance(value, (tuple, list)):
        return tuple(_frozen(item) for item in value)
    return value


def _interned(arrays: dict[str, np.ndarray], interned: dict
              ) -> dict[str, np.ndarray]:
    """``arrays`` with each array replaced by the canonical array kept
    in a session's ``interned`` map whose dtype, shape and raw bytes
    equal its own; an array with no equal becomes canonical.  Canonical
    arrays are read-only, so however many loads share one, none can
    change it.

    Equality is of bytes, never of values: ``-0.0`` and ``0.0`` stay
    apart and equal NaN payloads meet."""
    out = {}
    for name, array in arrays.items():
        bucket = interned.setdefault((array.dtype.str, array.shape), [])
        canonical = next((c for c in bucket if _same_bytes(c, array)),
                         None)
        if canonical is None:
            array.flags.writeable = False
            bucket.append(canonical := array)
        out[name] = canonical
    return out


#: Bytes compared per step of :func:`_same_bytes`: arrays that differ
#: usually differ early, so a mismatch stops after one chunk, and no
#: step allocates more than this much for its comparison result.
_COMPARE_CHUNK = 1 << 20


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the C-order raw bytes of ``a`` and ``b`` are equal."""
    a = np.ascontiguousarray(a).reshape(-1).view(np.uint8)
    b = np.ascontiguousarray(b).reshape(-1).view(np.uint8)
    return a.size == b.size and all(
        np.array_equal(a[i:i + _COMPARE_CHUNK], b[i:i + _COMPARE_CHUNK])
        for i in range(0, a.size, _COMPARE_CHUNK))


class GraphSystem(ABC):
    """Base class for the five reimplemented systems."""

    #: Registry name, e.g. ``"gap"``.
    name: ClassVar[str]
    #: Algorithms this system ships reference implementations for.
    provides: ClassVar[frozenset[str]]
    #: False when the system reads the file and builds the structure in
    #: one pass, making construction time unmeasurable (Sec. III-B).
    separable_construction: ClassVar[bool]
    #: Key of the homogenized native file whose bytes price the read.
    input_key: ClassVar[str]
    #: Key of the homogenized file :meth:`_read_input` builds from: the
    #: binary ``.g500`` dump unless a system parses its own binary file.
    read_key: ClassVar[str] = "g500"
    #: True for the Graph500, which only processes the synthetic graphs
    #: its own generator produces.
    kronecker_only: ClassVar[bool] = False
    #: How this system prices each shared body it runs (kcore, mis,
    #: cdlp, lcc): ``price(loaded.data, *facts)`` returns ``(profile,
    #: iterations)``, plus a counters dict where the system reports
    #: one.  Each ``_run_<algorithm>`` below names its body's facts.
    pricing: ClassVar[dict[str, Callable]] = {}

    def __init__(self, machine: MachineSpec | None = None,
                 n_threads: int = 32, shards: int = 1):
        if n_threads < 1:
            raise SystemCapabilityError("n_threads must be >= 1")
        if shards < 1:
            raise SystemCapabilityError("shards must be >= 1")
        self.machine = machine or haswell_server()
        self.n_threads = int(n_threads)
        #: Multi-process execution width for the kernels that shard
        #: (``repro.shard``); 1 = the serial kernels.  Orthogonal to
        #: ``n_threads``, which is the *simulated* thread count being
        #: priced -- sharding changes who computes, never the numbers.
        self.shards = int(shards)
        self.thread_model = ThreadModel(self.machine)
        #: Observability hook; the runner swaps in its live tracer.
        self.tracer = Tracer()

    # ------------------------------------------------------------------
    # Sharded execution support
    # ------------------------------------------------------------------
    def _shard_engine(self, loaded: "LoadedGraph", out, inn=None):
        """The persistent :class:`~repro.shard.engine.ShardEngine` for
        ``loaded``, created on first use and cached *on the loaded
        graph* so it lives exactly as long as the resident graph does
        (the engine's ``__del__``/atexit guards reap workers and
        shared-memory segments when the graph is evicted)."""
        from repro.shard.engine import ShardEngine

        engines = loaded.__dict__.setdefault("_shard_engines", {})
        key = (self.shards, inn is not None)
        engine = engines.get(key)
        if engine is None or engine.closed:
            engine = ShardEngine(out, inn, n_shards=self.shards)
            engines[key] = engine
        return engine

    def _note_shard_exchange(self, algorithm: str, engine) -> None:
        """Publish the engine's per-kernel exchange accounting as
        ``epg_shard_*`` counters (logged: they flow to events.jsonl,
        the live registry, and the dashboard's metrics pages; the
        REPORT reads none of them, preserving byte-identity)."""
        labels = {"system": self.name, "algorithm": algorithm,
                  "shards": engine.n_shards}
        for name, value in (
                ("epg_shard_rounds_total", engine.rounds),
                ("epg_shard_local_rounds_total", engine.local_rounds),
                ("epg_shard_bytes_total", engine.bytes_exchanged),
                ("epg_shard_cut_edges", engine.partition.cut_edges)):
            if value:
                self.tracer.counter(name, float(value), **labels)

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    def supports(self, algorithm: str) -> bool:
        return algorithm in self.provides

    def require(self, algorithm: str) -> None:
        if not self.supports(algorithm):
            raise SystemCapabilityError(
                f"{self.name} provides no reference implementation of "
                f"{algorithm} (provides: {sorted(self.provides)})")

    @property
    def power(self) -> PowerParams:
        return calibration.power_params(self.name)

    @property
    def noise_sensitivity(self) -> float:
        return calibration.noise_sensitivity(self.name)

    # ------------------------------------------------------------------
    # Loading (template method)
    # ------------------------------------------------------------------
    def load(self, dataset: HomogenizedDataset, cache=None,
             session: DatasetSession | None = None) -> LoadedGraph:
        """Ingest a homogenized dataset.

        Prices the read from the byte count of this system's native
        file (``input_key``), builds the internal structure (real work)
        from the edges :meth:`_read_input` returns, and prices the
        build.  Systems with fused read+build report ``build_s=None``
        and fold the construction cost into ``read_s`` (their "load"
        time).

        ``session`` is the caller's :class:`DatasetSession` for
        ``dataset`` (default: a private one).  The build (structure +
        profile) is kept in it per :meth:`_build_key` and only priced
        again by later loads at any thread count, its arrays are
        interned in it (:func:`_interned`), and the returned graph
        shares its ``answers``.  It never reads or changes a cache key.

        ``cache`` is an optional :class:`repro.cache.ArtifactCache`:
        on a hit the built arrays come back as read-only memmaps of the
        cached ``.npy`` files (zero copies, shared across worker
        processes) and the build's :class:`WorkProfile` is re-simulated
        for this instance's thread count -- the priced ``read_s`` /
        ``build_s`` are bit-identical to an uncached load, so caching
        never changes a reported number.
        """
        if self.kronecker_only and not dataset.name.startswith("kron"):
            raise SystemCapabilityError(
                f"{self.name} only runs graphs from its own Kronecker "
                f"generator, not {dataset.name!r}")
        path = dataset.path(self.input_key)
        n_bytes = (sum(f.stat().st_size for f in path.iterdir())
                   if path.is_dir() else path.stat().st_size)
        read_s = n_bytes / (calibration.read_rate_mbs(self.input_key) * 1e6)

        session = session or DatasetSession(dataset, cache)
        key = self._build_key()
        if key not in session.builds:
            session.builds[key] = self._cached_build(dataset, cache,
                                                     session.interned)
        data, build_profile = session.builds[key]
        build_s = self.thread_model.simulate(
            build_profile, calibration.build_params(self.name, self.machine),
            self.n_threads).time_s
        if not self.separable_construction:
            read_s, build_s = read_s + build_s, None
        return LoadedGraph(
            system=self.name, name=dataset.name,
            n_vertices=dataset.n_vertices, n_arcs=self._n_arcs(data),
            directed=dataset.directed, weighted=True,
            read_s=read_s, build_s=build_s, data=data,
            input_bytes=n_bytes, answers=session.answers)

    def _cached_build(self, dataset: HomogenizedDataset, cache,
                      interned: dict) -> tuple[Any, WorkProfile]:
        """Produce (data, build_profile): look the built arrays up in
        ``cache``, else build (and store) them, intern them in
        ``interned`` (:func:`_interned`), then assemble -- a warm load
        is a cold load minus the build.

        Layer 2 of the artifact cache: the built structure's arrays and
        the recorded build profile round-trip through one ``.npy``
        bundle keyed by the bytes of the priced file and of the file
        the build reads, + system + build knobs.  A corrupt
        or stale entry falls back to a fresh build (and is evicted).
        """
        key = None
        if cache is not None:
            from repro.cache.keys import loaded_graph_key

            key = loaded_graph_key(self, dataset)
            hit = cache.get_arrays(key, kind=f"graph:{self.name}")
            if hit is not None:
                arrays, meta = hit
                try:
                    profile = WorkProfile.from_arrays(
                        arrays.pop("profile_units"),
                        arrays.pop("profile_mem"),
                        arrays.pop("profile_skew"),
                        meta["profile_serial_units"])
                    return (self._assemble(_interned(arrays, interned),
                                           meta), profile)
                except Exception as exc:
                    cache.discard(key, exc)

        arrays, meta, profile = self._build(self._read_input(dataset),
                                            dataset)
        if key is not None:
            cache.put_arrays(
                key, f"graph:{self.name}",
                {**arrays, **profile.to_arrays()},
                {**meta, "profile_serial_units": profile.serial_units})
        return self._assemble(_interned(arrays, interned), meta), profile

    def _cache_token(self) -> dict:
        """Build-affecting knobs beyond the input bytes (cache key
        material)."""
        return {}

    def _build_key(self) -> tuple:
        """Which structure of a dataset this system builds."""
        return (self.name, *sorted(self._cache_token().items()))

    def _read_input(self, dataset: HomogenizedDataset) -> EdgeList:
        """The edges the build starts from, read from ``read_key``.

        The native file is priced, not parsed: by default this is the
        binary ``.g500`` dump of the same rows every text format holds
        (:meth:`HomogenizedDataset.load_edges`), also the Graph500's own
        file.  A system whose native file is another binary format
        (GraphMat) overrides this to read it."""
        return dataset.load_edges()

    @abstractmethod
    def _build(self, edges: EdgeList, dataset: HomogenizedDataset
               ) -> tuple[dict[str, np.ndarray], dict, WorkProfile]:
        """Build the structure's named arrays + scalar metadata (what
        the artifact cache stores); report the construction work."""

    @abstractmethod
    def _assemble(self, arrays: dict, meta: dict) -> Any:
        """Wrap ``_build``'s arrays (fresh, or read-only memmaps from
        the cache) into the kernels' structure, copying nothing."""

    @abstractmethod
    def _n_arcs(self, data: Any) -> int:
        """Stored arc count of the built structure."""

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, loaded: LoadedGraph, algorithm: str,
            root: int | None = None, **params: Any) -> KernelResult:
        """Execute one kernel and price it."""
        self.require(algorithm)
        method = getattr(self, f"_run_{algorithm}")
        if algorithm not in ROOTED_ALGORITHMS:
            return self._execute(loaded, algorithm, root,
                                 lambda: method(loaded, **params))
        self._check_root(algorithm, root, loaded)
        return self._execute(loaded, algorithm, root,
                             lambda: method(loaded, int(root), **params))

    # ------------------------------------------------------------------
    # The shared bodies: one call each, priced by ``pricing``
    # ------------------------------------------------------------------
    def _arcs(self, data: Any) -> tuple[np.ndarray, np.ndarray]:
        """The directed arcs ``(src, dst)`` of A as this system stores
        them: the input of every shared body."""
        raise NotImplementedError

    def _priced(self, loaded: LoadedGraph, algorithm: str,
                output: dict[str, np.ndarray], counters: dict,
                *facts: Any):
        """``(output, profile, iterations, counters)`` of one shared
        body's run, priced by this system from the body's ``facts``."""
        profile, iterations, *extra = self.pricing[algorithm](
            loaded.data, *facts)
        return output, profile, iterations, {**dict(*extra), **counters}

    def _answer(self, loaded: LoadedGraph, body: str, params: tuple,
                compute: Callable[[], Any]) -> Any:
        """What ``compute()`` -- the shared body ``body`` under
        ``params`` on ``loaded``'s arcs -- returns, kept in the
        answers of the session it was loaded in (``loaded.answers``).

        The key holds ``n`` and a digest of the arcs in canonical
        order, so a hit is proven by the input bytes, never by a
        dataset name, and every platform storing the same arcs shares
        one answer.  The value is frozen (arrays read-only, lists as
        tuples) and holds no priced number: each system still prices
        the facts itself."""
        memo = loaded.answers
        key = (body, params, loaded.n_vertices, self._arc_digest(loaded))
        if key not in memo:
            memo[key] = _frozen(compute())
        return memo[key]

    def _arc_digest(self, loaded: LoadedGraph) -> str:
        """blake2b of the sorted ``src * n + dst`` keys of ``loaded``'s
        arcs (duplicates kept), computed once per loaded graph."""
        digest = loaded.__dict__.get("_arc_digest")
        if digest is None:
            src, dst = self._arcs(loaded.data)
            keys = np.sort(np.asarray(src, dtype=np.int64)
                           * loaded.n_vertices + dst)
            digest = hashlib.blake2b(keys.tobytes(),
                                     digest_size=16).hexdigest()
            loaded.__dict__["_arc_digest"] = digest
        return digest

    def _simple_view(self, loaded: LoadedGraph) -> SimpleView:
        """The simple undirected view of ``loaded``'s arcs (k-core and
        MIS share it)."""
        return self._answer(
            loaded, "simple_undirected_view", (),
            lambda: simple_undirected_view(*self._arcs(loaded.data),
                                           loaded.n_vertices))

    def _run_kcore(self, loaded: LoadedGraph):
        """:func:`~repro.algorithms.kcore.peel_cores` on the simple
        view; priced from ``(view, rounds)``."""
        view = self._simple_view(loaded)
        core, rounds = self._answer(loaded, "peel_cores", (),
                                    lambda: peel_cores(view))
        return self._priced(
            loaded, "kcore", {"core": core},
            {"max_core": float(core.max()) if core.size else 0.0},
            view, rounds)

    def _run_mis(self, loaded: LoadedGraph, seed: int | None = None):
        """:func:`~repro.algorithms.mis.luby_rounds` on the simple view
        under the shared seeded priorities, packed as int64; priced
        from ``(view, rounds)``."""
        view = self._simple_view(loaded)

        def compute():
            in_set, rounds = luby_rounds(view, mis_priorities(view.n, seed))
            return in_set.astype(np.int64), rounds

        in_set, rounds = self._answer(loaded, "luby_rounds", (seed,),
                                      compute)
        return self._priced(
            loaded, "mis", {"in_set": in_set},
            {"set_size": float(in_set.sum())}, view, rounds)

    def _run_cdlp(self, loaded: LoadedGraph,
                  iterations: int = DEFAULT_CDLP_ITERATIONS):
        """:func:`~repro.algorithms.cdlp.propagate_labels` along the
        arcs; priced from ``(iterations,)``."""
        labels = self._answer(
            loaded, "propagate_labels", (iterations,),
            lambda: propagate_labels(*self._arcs(loaded.data),
                                     loaded.n_vertices, iterations))
        return self._priced(loaded, "cdlp", {"labels": labels}, {},
                            iterations)

    def _run_lcc(self, loaded: LoadedGraph):
        """:func:`~repro.algorithms.lcc.clustering_blocks` over the
        arcs at the default block height; priced from ``(wedges,
        blocks)``."""
        height = resolve_batch_rows(None, loaded.n_vertices)
        lcc, wedges, blocks = self._answer(
            loaded, "clustering_blocks", (height,),
            lambda: clustering_blocks(*self._arcs(loaded.data),
                                      loaded.n_vertices, height))
        return self._priced(loaded, "lcc", {"lcc": lcc},
                            {"wedges": float(wedges.sum())},
                            wedges, blocks)

    def untimed_phases(self, loaded: LoadedGraph,
                       build_s: float | None) -> dict[str, float]:
        """Seconds of the phases this system's native log prints beside
        the read, build and kernel EPG* times, keyed by their
        ``repro.core.logs`` field names: none by default."""
        return {}

    @staticmethod
    def _check_root(algorithm: str, root: int | None,
                    loaded: LoadedGraph) -> None:
        if root is None:
            raise SystemCapabilityError(f"{algorithm} requires a root")
        if not 0 <= root < loaded.n_vertices:
            raise SystemCapabilityError(
                f"{algorithm} root must be in [0, "
                f"{loaded.n_vertices}), got {root}")

    def _execute(self, loaded: LoadedGraph, algorithm: str,
                 root: int | None, kernel, cost_as: str | None = None
                 ) -> KernelResult:
        """Run ``kernel()`` -- ``(output, profile, iterations,
        counters)`` -- under its exec span, price the profile with the
        cost parameters of ``cost_as`` (default ``algorithm``), and
        drain the frontier counters it left."""
        with self.tracer.span(f"exec:{self.name}/{algorithm}",
                              category="exec", system=self.name,
                              algorithm=algorithm, root=root,
                              n_threads=self.n_threads) as sp:
            output, profile, iterations, counters = kernel()
            sim = self.thread_model.simulate(
                profile,
                calibration.cost_params(self.name, cost_as or algorithm,
                                        self.machine),
                self.n_threads)
            sp.set(time_s=sim.time_s, iterations=iterations)
        # Drain the frontier-library counters accumulated by this kernel
        # into the live registry only (log=False, the cache-counter rule:
        # events.jsonl stays invariant to kernel internals).
        kernel_counters = consume_counters()
        for name, value in kernel_counters.items():
            if value:
                self.tracer.counter(f"epg_kernel_{name}", value,
                                    log=False, system=self.name,
                                    algorithm=algorithm)
        self.tracer.observe("epg_kernel_seconds", sim.time_s,
                            system=self.name, algorithm=algorithm)
        edges = counters.get("edges_examined", loaded.n_arcs)
        if edges and sim.time_s > 0:
            self.tracer.observe("epg_kernel_teps", edges / sim.time_s,
                                system=self.name, algorithm=algorithm)
        return KernelResult(
            system=self.name, algorithm=algorithm, time_s=sim.time_s,
            sim=sim, profile=profile, output=output, root=root,
            iterations=iterations, counters=counters)

    def run_many(self, loaded: LoadedGraph, algorithm: str,
                 roots: tuple[int, ...] = (),
                 **params: Any) -> list[KernelResult]:
        """Execute one kernel sweep over several roots (the Graph500's
        batched-roots idiom, and the serving layer's coalescing unit).

        Rooted kernels run once per *distinct* root -- duplicate roots
        in the batch share a single execution, so N identical queries
        cost one sweep.  Rootless kernels (pagerank, wcc, ...) execute
        once regardless of batch size.  Results come back in request
        order, shared entries aliased.
        """
        self.require(algorithm)
        if algorithm not in ROOTED_ALGORITHMS:
            shared = self.run(loaded, algorithm, **params)
            return [shared] * max(len(roots), 1)
        if not roots:
            raise SystemCapabilityError(f"{algorithm} requires roots")
        by_root: dict[int, KernelResult] = {}
        for root in roots:
            if int(root) not in by_root:
                by_root[int(root)] = self.run(loaded, algorithm,
                                              root=int(root), **params)
        return [by_root[int(root)] for root in roots]
