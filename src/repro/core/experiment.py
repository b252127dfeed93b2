"""The five-phase EPG* pipeline (paper Fig 1).

Each phase "requires no more than a single shell command"; here each is
one method, and :meth:`Experiment.run_all` chains them:

1. :meth:`setup`      -- register/verify systems, persist the config
2. :meth:`homogenize` -- generate/convert the dataset for every system
3. :meth:`run`        -- execute algorithm x system x root x threads
4. :meth:`parse`      -- native logs -> one CSV
5. :meth:`analyze`    -- CSV -> statistics, tables, figure series
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path

from repro.core.config import ExperimentConfig
from repro.core.logs import parse_all_logs
from repro.core.records import Record
from repro.datasets.homogenize import HomogenizedDataset, homogenize
from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.datasets.realworld import (
    CIT_PATENTS_DEFAULT_FACTOR,
    DOTA_LEAGUE_DEFAULT_FACTOR,
    cit_patents,
    dota_league,
)
from repro.datasets.snap import read_snap
from repro.errors import ConfigError, LogParseError
from repro.graph.edgelist import EdgeList
from repro.ioutil import atomic_write_json
from repro.logging_util import get_logger, phase_timer
from repro.observability import Tracer
from repro.resilience import CellOutcome, SuiteCheckpoint, cell_id
from repro.systems.registry import available_systems

__all__ = ["Experiment"]


class Experiment:
    """Stateful driver for one configured study."""

    def __init__(self, config: ExperimentConfig,
                 tracer: Tracer | None = None):
        self.config = config
        #: Observability sink; a constructor argument (not config) so
        #: checkpoint digests are identical with and without tracing.
        self.tracer = tracer if tracer is not None else Tracer()
        self.dataset: HomogenizedDataset | None = None
        self.records: list[Record] | None = None
        #: Terminal outcome of every cell the last run() saw, in visit
        #: order (loaded-from-checkpoint cells included, so a resumed
        #: run reports identically to an uninterrupted one).
        self.cell_outcomes: list[CellOutcome] = []
        #: Unparseable log files the last parse() salvaged around.
        self.parse_problems: list[LogParseError] = []
        self._log = get_logger("repro.pipeline")

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def setup(self) -> list[str]:
        """Verify requested systems exist; persist the configuration."""
        avail = available_systems()
        missing = [s for s in self.config.systems if s not in avail]
        if missing:
            raise ConfigError(f"systems not installed: {missing}")
        out = self.config.output_dir
        out.mkdir(parents=True, exist_ok=True)
        atomic_write_json(out / "config.json", self.config.to_dict())
        return list(self.config.systems)

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def _artifact_cache(self):
        """The configured :class:`repro.cache.ArtifactCache`, or None."""
        from repro.cache import ArtifactCache

        return ArtifactCache.from_config(self.config, tracer=self.tracer)

    def _generate_edges(self, cache=None) -> EdgeList:
        cfg = self.config
        if cfg.dataset == "kronecker":
            return generate_kronecker(KroneckerSpec(
                scale=cfg.scale, seed=cfg.seed, weighted=True),
                cache=cache)
        if cfg.dataset == "cit-patents":
            return cit_patents(cfg.realworld_factor
                               or CIT_PATENTS_DEFAULT_FACTOR,
                               seed=cfg.seed)
        if cfg.dataset == "dota-league":
            return dota_league(cfg.realworld_factor
                               or DOTA_LEAGUE_DEFAULT_FACTOR,
                               seed=cfg.seed)
        return read_snap(cfg.snap_path)

    def homogenize(self) -> HomogenizedDataset:
        """Phase 2: write every per-system input file + roots."""
        with phase_timer("homogenize", self._log, tracer=self.tracer):
            cache = self._artifact_cache()
            edges = self._generate_edges(cache=cache)
            self._log.info("dataset %s: %d vertices, %d edges",
                           edges.name, edges.n_vertices, edges.n_edges)
            self.dataset = homogenize(
                edges, self.config.output_dir / "datasets",
                n_roots=self.config.n_roots, seed=self.config.seed,
                tracer=self.tracer, cache=cache)
        return self.dataset

    # ------------------------------------------------------------------
    # Phase 3
    # ------------------------------------------------------------------
    def run(self, pool=None) -> list[Path]:
        """Phase 3: execute every requested cell; return log paths.

        Every cell runs under a :class:`CellSupervisor` (retry /
        backoff / quarantine) and its terminal outcome is recorded in
        the experiment's atomic ``checkpoint.json``: a rerun of the
        same configuration skips completed cells entirely, which is
        what makes ``epg resume`` (and plain rerun-after-crash) cheap
        and byte-identical.

        One sweep at every job count: outstanding cells are submitted
        to ``pool`` (a :class:`repro.parallel.CellPool`; default: a
        private one of ``config.jobs`` jobs) and committed -- trace
        splice, checkpoint record, outcome ledger -- strictly in
        canonical cell order, whoever executed them (a one-job pool:
        this process, as the commit loop reaches each).  An interrupt
        loses only uncommitted cells; the checkpoint always holds a
        canonical prefix, so resume reruns exactly the missing tail.
        """
        from repro.parallel import CellPool

        if self.dataset is None:
            self.homogenize()
        checkpoint = SuiteCheckpoint.load_or_create(
            self.config.output_dir, self.config)
        self.cell_outcomes = []
        paths: list[Path] = []
        cells = [(cell_id(*cell), cell) for cell in self._cells()]
        with ExitStack() as stack:
            if pool is None:
                pool = stack.enter_context(CellPool(self.config.jobs))
            stack.enter_context(
                phase_timer("run", self._log, tracer=self.tracer))
            stack.enter_context(pool.sweep(self.tracer, self._prewarm))
            futures = {cid: pool.submit_cell(self.config, self.dataset,
                                             *cell)
                       for cid, cell in cells
                       if checkpoint.get(cid) is None}
            for cid, cell in cells:
                if cid in futures:
                    outcome, events = futures[cid].result()
                    self.tracer.ingest_cell_events(events)
                    checkpoint.record(outcome)
                else:
                    outcome = checkpoint.get(cid)
                    self.tracer.counter("epg_checkpoint_hits_total",
                                        cell=cid)
                    self._log.debug("checkpoint: %s already %s",
                                    cid, outcome.status)
                self._finish_cell(*cell, outcome, paths)
        return paths

    def _cells(self) -> list[tuple[str, str, int]]:
        """Canonical cell order: the commit order."""
        return [(system, algorithm, n_threads)
                for n_threads in self.config.thread_counts
                for system in self.config.systems
                for algorithm in self.config.algorithms]

    def _prewarm(self) -> None:
        """Before a multi-process fan-out: materialize every graph
        structure in the artifact cache once; the workers then map it
        read-only (zero-copy, not per-worker deserialization)."""
        cache = self._artifact_cache()
        if cache is not None:
            from repro.cache.prewarm import prewarm_loaded_graphs

            prewarm_loaded_graphs(self.config, self.dataset, cache)

    def _finish_cell(self, system: str, algorithm: str, n_threads: int,
                     outcome: CellOutcome, paths: list[Path]) -> None:
        self.cell_outcomes.append(outcome)
        if outcome.status == "completed":
            p = self.config.output_dir / outcome.log
            self._log.info("ran %s/%s (t=%d) -> %s", system, algorithm,
                           n_threads, p.name)
            paths.append(p)
        elif outcome.status == "unsupported":
            self._log.debug("skipped %s/%s (t=%d): not supported",
                            system, algorithm, n_threads)
        else:
            self._log.warning("quarantined %s after %d attempt(s)",
                              outcome.cell, len(outcome.attempts))

    @property
    def quarantined(self) -> list[CellOutcome]:
        """Cells the last run() left quarantined."""
        return [o for o in self.cell_outcomes
                if o.status == "quarantined"]

    # ------------------------------------------------------------------
    # Phase 4
    # ------------------------------------------------------------------
    def parse(self) -> Path:
        """Phase 4: logs -> results.csv (salvaging damaged logs)."""
        self.parse_problems = []
        records = parse_all_logs(self.config.output_dir / "logs",
                                 problems=self.parse_problems)
        self.records = records
        csv_path = self.config.output_dir / "results.csv"
        with csv_path.open("w", encoding="utf-8") as fh:
            fh.write(Record.csv_header() + "\n")
            for r in records:
                fh.write(r.to_csv_row() + "\n")
        return csv_path

    @staticmethod
    def load_csv(path: str | Path) -> list[Record]:
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigError(
                f"{path}: not an EPG results CSV (not UTF-8)") from None
        if not lines or lines[0] != Record.csv_header():
            raise ConfigError(f"{path}: not an EPG results CSV")
        return [Record.from_csv_row(row) for row in lines[1:] if row]

    # ------------------------------------------------------------------
    # Phase 5
    # ------------------------------------------------------------------
    def analyze(self):
        """Phase 5: statistics over the parsed records."""
        from repro.core.analysis import Analysis

        if self.records is None:
            csv = self.config.output_dir / "results.csv"
            if csv.exists():
                self.records = self.load_csv(csv)
            else:
                raise ConfigError("run parse() before analyze()")
        return Analysis(self.records, machine=self.config.machine)

    # ------------------------------------------------------------------
    def run_all(self, pool=None):
        """All five phases, start to finish."""
        self.setup()
        self.homogenize()
        self.run(pool=pool)
        self.parse()
        return self.analyze()
