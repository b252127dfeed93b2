"""The Graphalytics execution harness (with its timing flaw intact)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.homogenize import HomogenizedDataset
from repro.errors import SystemCapabilityError
from repro.machine.spec import MachineSpec, haswell_server
from repro.machine.variance import VarianceModel
from repro.systems import create_system
from repro.systems.base import ROOTED_ALGORITHMS, KernelResult

__all__ = ["GraphalyticsHarness", "GraphalyticsResult",
           "GRAPHALYTICS_PLATFORMS", "GRAPHALYTICS_ALGORITHMS"]

#: The platforms the paper's Graphalytics runs cover (Tables I-II).
GRAPHALYTICS_PLATFORMS = ("graphbig", "powergraph", "graphmat")

#: Graphalytics' algorithm set and its table column order.
GRAPHALYTICS_ALGORITHMS = ("bfs", "cdlp", "lcc", "pagerank", "sssp", "wcc")

#: Graphalytics runs PageRank and CDLP for fixed iteration budgets
#: (its benchmark spec parameterizes, it does not converge) -- the
#: stopping-criterion difference behind the Table II vs Fig 4
#: discrepancy the paper explains in Sec. IV-A.
PAGERANK_ITERATIONS = 10
CDLP_ITERATIONS = 10


@dataclass
class GraphalyticsResult:
    """One cell of a Graphalytics report: a single-trial makespan."""

    platform: str
    algorithm: str
    dataset: str
    #: The number Graphalytics reports (seconds) -- whatever span the
    #: platform driver happened to wrap.
    reported_s: float
    #: What the span actually contained, for the paper's log-digging.
    breakdown: dict[str, float] = field(default_factory=dict)
    not_available: bool = False
    #: Cell exceeded the benchmark's per-job time budget (Sec. V:
    #: "Graphalytics encountered circumstances with the more
    #: computationally expensive algorithms fail").
    failed: bool = False

    @property
    def display(self) -> str:
        """Paper tables print one decimal; small simulated runs keep
        three significant digits so reduced-scale cells stay readable."""
        if self.not_available:
            return "N/A"
        if self.failed:
            return "F"
        if self.reported_s >= 10:
            return f"{self.reported_s:.1f}"
        return f"{self.reported_s:.3g}"


class GraphalyticsHarness:
    """Runs platform x algorithm cells the Graphalytics way."""

    def __init__(self, machine: MachineSpec | None = None,
                 n_threads: int = 32, seed: int = 3,
                 time_limit_s: float | None = None):
        self.machine = machine or haswell_server()
        self.n_threads = n_threads
        self.seed = seed
        self.variance = VarianceModel(seed)
        #: Per-job wall-clock budget; cells whose makespan exceeds it
        #: are reported failed ("F"), the Sec. V behaviour.
        self.time_limit_s = time_limit_s
        #: The one resident dataset directory.  Cells arrive grouped by
        #: dataset (``run_matrix`` runs one dataset's), so a cell naming
        #: another directory closes and drops everything loaded from
        #: this one; coming back to a dataset loads it again.
        self._resident: str | None = None
        #: platform -> (system, LoadedGraph) of the resident dataset:
        #: loads are deterministic, so each platform ingests it once
        #: instead of once per algorithm cell.
        self._loaded: dict = {}
        #: The ``built`` dict every platform loads the resident dataset
        #: with: it holds each distinct built array once and memoizes
        #: the shared bodies' answers (``GraphSystem._answer``), so LCC
        #: and CDLP run once per graph.
        self._built: dict = {}

    # ------------------------------------------------------------------
    def run_cell(self, platform: str, algorithm: str,
                 dataset: HomogenizedDataset) -> GraphalyticsResult:
        """One experiment = one run (the flaw the Table I caption notes)."""
        if platform not in GRAPHALYTICS_PLATFORMS:
            raise SystemCapabilityError(
                f"Graphalytics v0.3 has no {platform!r} driver")
        if algorithm not in GRAPHALYTICS_ALGORITHMS:
            raise SystemCapabilityError(
                f"Graphalytics does not define {algorithm!r}")
        # Graphalytics refuses SSSP on unweighted datasets (Table I's
        # N/A cells; Sec. IV-A notes the same for undirected graphs).
        if algorithm == "sssp" and not dataset.weighted:
            return GraphalyticsResult(
                platform=platform, algorithm=algorithm,
                dataset=dataset.name, reported_s=float("nan"),
                not_available=True)

        system, loaded = self._system_and_loaded(platform, dataset)
        root = int(dataset.roots[0])

        result = self._run_kernel(system, loaded, algorithm, root)
        kernel_s = self._jitter(result.time_s, platform, algorithm,
                                dataset.name, "kernel")

        breakdown = {"algorithm": kernel_s}
        # The platform drivers wrap different spans -- reproduced here.
        if platform == "graphmat":
            # Driver measures the whole GraphMat process: file read +
            # matrix build + engine init + algorithm (Sec. II's example:
            # 6.3 s reported, 2.7 s of it reading dota-league).
            read = self._jitter(loaded.read_s, platform, algorithm,
                                dataset.name, "read")
            build = self._jitter(loaded.build_s or 0.0, platform,
                                 algorithm, dataset.name, "build")
            breakdown.update(file_read=read, build=build)
            reported = read + build + kernel_s
        elif platform == "graphbig":
            # Driver times only the kernel ("does not include the time
            # to read the dota-league file").
            reported = kernel_s
        else:  # powergraph
            # Driver makespan includes graph ingest + engine spin-up.
            load = self._jitter(loaded.read_s, platform, algorithm,
                                dataset.name, "load")
            breakdown.update(load=load)
            reported = load + kernel_s
        failed = (self.time_limit_s is not None
                  and reported > self.time_limit_s)
        return GraphalyticsResult(
            platform=platform, algorithm=algorithm, dataset=dataset.name,
            reported_s=reported, breakdown=breakdown, failed=failed)

    def _system_and_loaded(self, platform: str,
                           dataset: HomogenizedDataset):
        if str(dataset.directory) != self._resident:
            self.close()
            self._resident = str(dataset.directory)
        hit = self._loaded.get(platform)
        if hit is None:
            system = create_system(platform, machine=self.machine,
                                   n_threads=self.n_threads)
            hit = (system, system.load(dataset, built=self._built))
            self._loaded[platform] = hit
        return hit

    def close(self) -> None:
        """Close and drop the resident dataset's loads and its
        ``built`` dict; the next cell loads afresh."""
        for _, loaded in self._loaded.values():
            loaded.close()
        self._loaded = {}
        self._built = {}
        self._resident = None

    # ------------------------------------------------------------------
    def run_matrix(self, dataset: HomogenizedDataset,
                   platforms=GRAPHALYTICS_PLATFORMS,
                   algorithms=GRAPHALYTICS_ALGORITHMS, *,
                   pool=None) -> list[GraphalyticsResult]:
        """Tables I-II: every platform x algorithm cell on one dataset.

        The cells go through ``pool`` (a :class:`repro.parallel.
        CellPool`; default: one job, i.e. on this harness, in this
        process) and are gathered in table order -- every cell is a
        pure function of the harness seed, so the tables are identical
        at any job count.
        """
        from repro.parallel import CellPool

        with (pool or CellPool(1)).sweep() as pool:
            futures = [pool.submit_graphalytics(self, p, a, dataset)
                       for p in platforms for a in algorithms]
            return [f.result() for f in futures]

    def __getstate__(self) -> dict:
        """Pickle the parameters, never the loaded graphs or answers: a
        worker process loads its own (once, on its resident harness)."""
        return {**self.__dict__, "_resident": None, "_loaded": {},
                "_built": {}}

    # ------------------------------------------------------------------
    def _run_kernel(self, system, loaded, algorithm: str,
                    root: int) -> KernelResult:
        if algorithm == "bfs" and system.name == "powergraph":
            # The driver-supplied GAS program (no toolkit BFS).
            return system.run_toolkit_extension(loaded, "bfs-hops",
                                                root=root)
        if algorithm == "pagerank":
            # Fixed iteration budget: epsilon=0 disables convergence.
            return system.run(loaded, algorithm, epsilon=0.0,
                              max_iterations=PAGERANK_ITERATIONS)
        if algorithm == "cdlp":
            return system.run(loaded, algorithm,
                              iterations=CDLP_ITERATIONS)
        if algorithm in ROOTED_ALGORITHMS:
            return system.run(loaded, algorithm, root=root)
        return system.run(loaded, algorithm)

    def _jitter(self, seconds: float, *key_parts) -> float:
        return self.variance.jitter(seconds, ("graphalytics",) + key_parts)
