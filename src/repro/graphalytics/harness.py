"""The Graphalytics execution harness (with its timing flaw intact).

A harness holds only its parameters; each cell loads in the cell
worker's :class:`~repro.systems.session.DatasetSession`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.homogenize import HomogenizedDataset
from repro.errors import SystemCapabilityError
from repro.machine.spec import MachineSpec, haswell_server
from repro.machine.variance import VarianceModel
from repro.observability import Tracer
from repro.systems import create_system
from repro.systems.base import ROOTED_ALGORITHMS, KernelResult
from repro.systems.session import DatasetSession

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

    # ------------------------------------------------------------------
    def run_cell(self, platform: str, algorithm: str,
                 dataset: HomogenizedDataset,
                 session: DatasetSession) -> GraphalyticsResult:
        """One experiment = one run (the flaw the Table I caption notes),
        loaded in ``session``, the caller's for ``dataset``."""
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

        system, loaded = session.load(create_system(
            platform, machine=self.machine, n_threads=self.n_threads))
        # The comparator is not traced, whichever cell loaded ``system``.
        system.tracer = Tracer()
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

    # ------------------------------------------------------------------
    def run_matrix(self, dataset: HomogenizedDataset,
                   platforms=GRAPHALYTICS_PLATFORMS,
                   algorithms=GRAPHALYTICS_ALGORITHMS, *,
                   pool=None) -> list[GraphalyticsResult]:
        """Tables I-II: every platform x algorithm cell on one dataset.

        The cells go through ``pool`` (a :class:`repro.parallel.
        CellPool`; default: one job, i.e. in this process, on a session
        the sweep closes) and are gathered in table order -- every cell
        is a pure function of the harness seed, so the tables are
        identical at any job count.
        """
        from repro.parallel import CellPool

        with (pool or CellPool(1)).sweep() as pool:
            futures = [pool.submit_graphalytics(self, p, a, dataset)
                       for p in platforms for a in algorithms]
            return [f.result() for f in futures]

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
