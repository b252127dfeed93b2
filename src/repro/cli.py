"""Command-line interface: the paper's five shell commands.

"Our framework breaks the process of characterizing performance into
five principal phases ... each of which requires no more than a single
shell command" (Sec. III)::

    epg setup      --output out/
    epg homogenize --output out/ --dataset kronecker --scale 14
    epg run        --output out/
    epg parse      --output out/
    epg analyze    --output out/ --figure fig2

plus ``epg all`` chaining everything and ``epg graphalytics`` for the
comparator tables.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.core.config import DATASET_KINDS, ExperimentConfig
from repro.core.experiment import Experiment
from repro.errors import (
    CacheError,
    CellTimeoutError,
    CheckpointError,
    ConfigError,
    DashboardError,
    DatasetError,
    GraphFormatError,
    LogParseError,
    PowerMeasurementError,
    ReproError,
    ServiceError,
    SystemCapabilityError,
    TraceError,
    ValidationError,
)
from repro.systems.registry import ALL_SYSTEM_NAMES, available_systems

__all__ = ["main", "build_parser", "EXIT_CODES", "EXIT_INTERRUPTED",
           "EXIT_BROKEN_PIPE"]

#: Exit code for an interrupted run (SIGINT *or* SIGTERM): the shell
#: convention 128+SIGINT, documented as "resume with ``epg resume``".
EXIT_INTERRUPTED = 130

#: Exit code when the reader of stdout goes away (``epg ... | head``):
#: the shell convention 128+SIGPIPE.
EXIT_BROKEN_PIPE = 141

#: Commands whose interruption leaves a resumable checkpoint behind.
_RESUMABLE_COMMANDS = frozenset({"reproduce", "resume", "run", "all",
                                 "graphalytics"})

_FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig8", "fig9")

#: One distinct non-zero exit code per ReproError subclass, so shell
#: wrappers (the paper's natural habitat) can branch on failure kind.
EXIT_CODES: dict[type, int] = {
    ConfigError: 2,
    DatasetError: 3,
    SystemCapabilityError: 4,
    LogParseError: 5,
    ValidationError: 6,
    PowerMeasurementError: 7,
    CellTimeoutError: 8,
    # 9 is retired (it named an error nothing raised); kept unused so
    # the codes after it never move.
    CheckpointError: 10,
    GraphFormatError: 11,
    TraceError: 12,
    CacheError: 13,
    ServiceError: 14,
    DashboardError: 15,
}


def _size(text: str) -> int:
    """argparse type for byte sizes with binary suffixes (``500M``)."""
    from repro.cache import parse_size

    try:
        return parse_size(text)
    except (ConfigError, CacheError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: The execution flags, each spelled here and nowhere else.  None of
#: them changes a reported byte.
_EXECUTION_FLAGS = {
    "--max-retries": dict(
        type=int, default=2, help="retries per cell before quarantine"),
    "--cell-timeout": dict(
        type=float, default=None,
        help="per-attempt deadline in simulated seconds"),
    "--fault-spec": dict(
        default=None,
        help="inject deterministic faults, e.g. 'gap/bfs/t32:crash:2' "
             "(testing; under `serve`, server-side chaos)"),
    "--jobs": dict(
        type=int, default=None,
        help="worker processes for experiment cells; results are "
             "byte-identical at any value (default: one per CPU "
             "core; under `resume`, the interrupted run's count)"),
    "--shards": dict(
        type=int, default=1,
        help="worker processes per kernel execution (sharded engine; "
             "outputs are bit-identical at any value, see "
             "docs/sharding.md)"),
    "--cache-dir": dict(
        type=Path, default=None,
        help="persistent artifact cache directory (byte-transparent; "
             "see docs/cache.md)"),
    "--cache-max-bytes": dict(
        type=_size, default=None, metavar="SIZE",
        help="cache LRU GC budget, e.g. 500M or 2G"),
}


def _add_execution_flags(sp, *names: str) -> None:
    """Declare the named :data:`_EXECUTION_FLAGS` (default: all) on
    the subparser ``sp``."""
    for name in names or _EXECUTION_FLAGS:
        short = ("-j",) if name == "--jobs" else ()
        sp.add_argument(name, *short, **_EXECUTION_FLAGS[name])


def _execution_kwargs(args) -> dict:
    """The execution flags under the keyword names
    :class:`ExperimentConfig` and ``run_paper_suite`` share;
    ``--jobs`` is resolved here, once (absent = one per core)."""
    from repro.parallel import resolve_jobs

    return dict(max_retries=args.max_retries,
                cell_timeout_s=args.cell_timeout,
                fault_spec=args.fault_spec,
                jobs=resolve_jobs(args.jobs), shards=args.shards,
                cache_dir=args.cache_dir,
                cache_max_bytes=args.cache_max_bytes)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="epg",
        description="easy-parallel-graph-*: compare parallel graph "
                    "processing systems")
    p.add_argument("--verbose", "-v", action="store_true",
                   help="log pipeline progress to stderr")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", type=Path, required=True,
                        help="experiment output directory")
        sp.add_argument("--dataset", default="kronecker",
                        choices=DATASET_KINDS)
        sp.add_argument("--snap-path", type=Path, default=None)
        sp.add_argument("--scale", type=int, default=14,
                        help="Kronecker scale (2^scale vertices)")
        sp.add_argument("--systems", nargs="+", default=None,
                        choices=ALL_SYSTEM_NAMES)
        sp.add_argument("--algorithms", nargs="+",
                        default=["bfs", "sssp", "pagerank"])
        sp.add_argument("--roots", type=int, default=32)
        sp.add_argument("--trials", type=int, default=1)
        sp.add_argument("--threads", type=int, nargs="+", default=[32])
        sp.add_argument("--seed", type=int, default=20170402)
        _add_execution_flags(sp)

    for name, help_ in (
            ("setup", "phase 1: verify systems, persist config"),
            ("homogenize", "phase 2: generate per-system input files"),
            ("run", "phase 3: execute all experiment cells"),
            ("parse", "phase 4: parse native logs into results.csv"),
            ("analyze", "phase 5: print statistics / figure series"),
            ("all", "run all five phases")):
        sp = sub.add_parser(name, help=help_)
        common(sp)
        if name in ("analyze", "all"):
            sp.add_argument("--figure", choices=_FIGURES, default=None,
                            help="print one figure's data series")

    sp = sub.add_parser("graphalytics",
                        help="run the simulated Graphalytics comparator")
    common(sp)

    sp = sub.add_parser(
        "compare",
        help="statistical pairwise comparison from results.csv")
    sp.add_argument("--output", type=Path, required=True)
    sp.add_argument("--algorithm", default="bfs")
    sp.add_argument("--pair", nargs=2, metavar=("A", "B"),
                    required=True, choices=ALL_SYSTEM_NAMES)

    sp = sub.add_parser(
        "feasibility",
        help="predict whether experiments will finish (Sec. V)")
    sp.add_argument("--scale", type=int, required=True,
                    help="Kronecker scale of the intended workload")
    sp.add_argument("--threads", type=int, default=32)
    sp.add_argument("--time-limit", type=float, default=None,
                    help="per-kernel wall-clock budget in seconds")
    sp.add_argument("--systems", nargs="+", default=None,
                    choices=ALL_SYSTEM_NAMES)

    sp = sub.add_parser("viz", help="render SVG figures from results.csv")
    sp.add_argument("--output", type=Path, required=True,
                    help="experiment output directory (with results.csv)")
    sp.add_argument("--figures-dir", type=Path, default=None,
                    help="where to write SVGs (default <output>/figures)")

    sp = sub.add_parser(
        "reproduce",
        help="regenerate the paper's full evaluation into one report")
    sp.add_argument("--output", type=Path, required=True)
    sp.add_argument("--scale", type=int, default=12)
    sp.add_argument("--roots", type=int, default=8)
    sp.add_argument("--seed", type=int, default=20170402)
    sp.add_argument("--no-svg", action="store_true")
    sp.add_argument("--resume", action="store_true",
                    help="keep checkpoints: skip already-completed cells")
    sp.add_argument("--trace", action="store_true",
                    help="record hierarchical spans + metrics under "
                         "<output>/trace/")
    _add_execution_flags(sp)

    sp = sub.add_parser(
        "resume",
        help="continue an interrupted 'epg reproduce' from its "
             "checkpoints")
    sp.add_argument("output", type=Path,
                    help="the interrupted suite's output directory")
    _add_execution_flags(sp, "--jobs")

    sp = sub.add_parser(
        "verify", help="check an experiment dir against provenance.json")
    sp.add_argument("--output", type=Path, required=True)

    sp = sub.add_parser(
        "trace",
        help="inspect a recorded trace (events.jsonl) from a traced run")
    sp.add_argument("output", type=Path,
                    help="run directory, trace directory, or events.jsonl")
    sp.add_argument("--validate", action="store_true",
                    help="check the span schema and print a summary")
    sp.add_argument("--strict", action="store_true",
                    help="fail on a truncated final line instead of "
                         "tolerating it (a live or hard-killed run "
                         "legitimately leaves one)")
    sp.add_argument("--chrome", action="store_true",
                    help="write Chrome trace-event JSON (trace.json) "
                         "next to the event log")
    sp.add_argument("--svg", action="store_true",
                    help="render the SVG timeline next to the event log")
    sp.add_argument("--depth", type=int, default=None,
                    help="limit the printed span-tree depth")

    sp = sub.add_parser(
        "metrics",
        help="print a Prometheus snapshot replayed from a trace")
    sp.add_argument("output", type=Path,
                    help="run directory, trace directory, or events.jsonl")
    sp.add_argument("--json", action="store_true",
                    help="JSON snapshot instead of Prometheus text")

    sp = sub.add_parser(
        "traces", help="render captured power traces (CSV) to SVG")
    sp.add_argument("--output", type=Path, required=True,
                    help="experiment directory with traces/ inside")

    sp = sub.add_parser(
        "cache", help="inspect or maintain an artifact cache directory")
    sp.add_argument("action", choices=("ls", "gc", "verify", "clear"),
                    help="ls: list entries; gc: evict LRU entries over "
                         "the byte budget; verify: re-hash every entry, "
                         "evicting corrupt ones; clear: remove all")
    sp.add_argument("--dir", type=Path, required=True, dest="cache_dir",
                    help="the cache directory (as passed to --cache-dir)")
    sp.add_argument("--max-bytes", type=_size, default=None,
                    metavar="SIZE",
                    help="byte budget for gc, e.g. 500M or 2G")

    sp = sub.add_parser(
        "stream",
        help="replay a seeded mutation stream through the incremental "
             "kernels (see docs/streaming.md)")
    sp.add_argument("--output", type=Path, required=True,
                    help="stream run directory (results CSV + trace)")
    sp.add_argument("--scale", type=int, default=10,
                    help="Kronecker scale of the event stream")
    sp.add_argument("--batches", type=int, default=8,
                    help="number of mutation batches")
    sp.add_argument("--batch-edges", type=int, default=64,
                    help="insert tuples per batch (before symmetrize)")
    sp.add_argument("--delete-frac", type=float, default=0.25,
                    help="deletes per batch as a fraction of "
                         "--batch-edges")
    sp.add_argument("--seed", type=int, default=20170402)
    sp.add_argument("--algorithms", nargs="+",
                    default=["bfs", "sssp", "pagerank"],
                    choices=("bfs", "sssp", "pagerank"),
                    help="kernels to keep incrementally repaired "
                         "(sssp implies a weighted stream)")
    sp.add_argument("--unweighted", action="store_true",
                    help="drop edge weights (excludes sssp)")
    sp.add_argument("--check", action="store_true",
                    help="verify every post-batch answer against the "
                         "from-scratch oracle")
    sp.add_argument("--trace", action="store_true",
                    help="record stream spans + metrics under "
                         "<output>/trace/")
    _add_execution_flags(sp, "--cache-dir")

    sp = sub.add_parser(
        "serve",
        help="run the fault-tolerant query daemon (see docs/service.md)")
    sp.add_argument("--data-dir", type=Path, required=True,
                    help="daemon state root (graphs/ + served.json)")
    sp.add_argument("--graphs", nargs="+", default=[],
                    metavar="SPEC",
                    help="graphs to serve, e.g. kron:10 cit-patents "
                         "(omit to recover the roster from served.json)")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8750)
    sp.add_argument("--workers", type=int, default=2,
                    help="kernel worker threads")
    _add_execution_flags(sp, "--shards", "--cache-dir", "--fault-spec")
    sp.add_argument("--max-queue", type=int, default=16,
                    help="admission queue bound; excess queries get 503")
    sp.add_argument("--max-inflight", type=int, default=4,
                    help="queries executing concurrently")
    sp.add_argument("--request-timeout", type=float, default=10.0,
                    help="per-request deadline in seconds")
    sp.add_argument("--wedge-timeout", type=float, default=None,
                    help="seconds before the watchdog quarantines a "
                         "wedged worker (default: request timeout / 2)")
    sp.add_argument("--breaker-failures", type=int, default=3,
                    help="consecutive failures that open a circuit")
    sp.add_argument("--batch-window", type=float, default=0.01,
                    help="longest a same-graph group lingers for "
                         "coalescing while every worker is busy "
                         "(seconds)")
    sp.add_argument("--max-batch", type=int, default=32)
    sp.add_argument("--max-resident-bytes", type=_size, default=None,
                    metavar="SIZE",
                    help="resident-graph LRU budget, e.g. 1.5G or 512k")
    sp.add_argument("--max-rps-per-client", type=float, default=None,
                    help="per-client token-bucket rate (429 over it)")
    sp.add_argument("--seed", type=int, default=20170402)
    sp.add_argument("--trace", action="store_true",
                    help="record request spans + metrics under "
                         "<data-dir>/trace/")
    sp.add_argument("--drain-grace", type=float, default=15.0,
                    help="seconds SIGTERM waits for in-flight queries")

    sp = sub.add_parser(
        "dash",
        help="serve a live read-only dashboard over runs and daemons "
             "(see docs/dashboard.md)")
    sp.add_argument("root", type=Path, nargs="?", default=None,
                    help="a run directory, a parent of run directories, "
                         "or a serve data dir to watch")
    sp.add_argument("--serve-url", default=None,
                    help="base URL of a live `epg serve` daemon for "
                         "the service page, e.g. http://127.0.0.1:8750")
    sp.add_argument("--host", default="127.0.0.1")
    sp.add_argument("--port", type=int, default=8780)
    sp.add_argument("--history", type=int, default=512,
                    help="metric-history snapshots kept per run")
    sp.add_argument("--max-depth", type=int, default=6,
                    help="span nesting depth rendered in the live "
                         "timeline SVG (0 = unlimited)")

    sp = sub.add_parser(
        "loadgen",
        help="drive a running daemon with seeded traffic and report")
    sp.add_argument("--url", default="http://127.0.0.1:8750",
                    help="daemon base URL")
    sp.add_argument("--duration", type=float, default=10.0)
    sp.add_argument("--clients", type=int, default=4)
    sp.add_argument("--mode", choices=("closed", "open"),
                    default="closed",
                    help="closed: back-to-back per client; open: paced "
                         "arrivals at --rps regardless of completions")
    sp.add_argument("--rps", type=float, default=None,
                    help="target arrival rate (open-loop mode)")
    sp.add_argument("--systems", nargs="+",
                    default=["gap", "graph500"],
                    choices=ALL_SYSTEM_NAMES)
    sp.add_argument("--algorithms", nargs="+", default=["bfs"])
    sp.add_argument("--threads", type=int, default=32)
    sp.add_argument("--seed", type=int, default=20170402)
    sp.add_argument("--report", type=Path, default=None,
                    help="write the JSON report here")
    sp.add_argument("--dash-url", default=None,
                    help="base URL of a running `epg dash`; the report "
                         "gains a watch-live hint to its service page")

    sub.add_parser("systems", help="list installed systems")
    sub.add_parser("datasets", help="list the dataset catalog")
    return p


def _config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        output_dir=args.output,
        dataset=args.dataset,
        snap_path=args.snap_path,
        scale=args.scale,
        systems=tuple(args.systems) if args.systems else ALL_SYSTEM_NAMES,
        algorithms=tuple(args.algorithms),
        n_roots=args.roots,
        n_trials=args.trials,
        thread_counts=tuple(args.threads),
        seed=args.seed,
        **_execution_kwargs(args),
    )


def _exit_code(exc: ReproError) -> int:
    for klass, code in EXIT_CODES.items():
        if isinstance(exc, klass):
            return code
    return 1


def _warn_if_degraded(root: Path) -> None:
    """Exit-0-with-warning path: the suite finished, but degraded."""
    from repro.resilience import SuiteCheckpoint

    cells = SuiteCheckpoint.scan_quarantined(root)
    if cells:
        shown = ", ".join(cells[:8]) + (" ..." if len(cells) > 8 else "")
        print(f"epg: warning: completed degraded; {len(cells)} "
              f"quarantined cell(s): {shown}", file=sys.stderr)


def _install_termination_handler() -> None:
    """Make SIGTERM behave like SIGINT for long-running commands.

    ``kill <pid>`` (the default signal cluster schedulers and CI
    runners send) must leave the same resumable state Ctrl-C does: the
    handler flips the process-wide drain flag -- so in-flight
    supervisors quarantine instead of scheduling retries -- and raises
    :class:`KeyboardInterrupt`, which :func:`main` turns into the
    documented checkpoint-and-exit-130 path.
    """
    import signal

    def _on_sigterm(signum, frame):
        from repro.resilience import request_drain

        request_drain()
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch, mapping framework errors to exit codes.

    Every :class:`ReproError` becomes a one-line stderr message and a
    distinct non-zero exit code (see :data:`EXIT_CODES`) instead of a
    traceback; a suite that completes with quarantined cells exits 0
    with a degraded-completion warning.  SIGINT and SIGTERM both exit
    :data:`EXIT_INTERRUPTED` after the checkpoint has recorded every
    completed cell, so the run can continue with ``epg resume``.  A
    reader that closes stdout early ends the command quietly with
    :data:`EXIT_BROKEN_PIPE`.
    """
    args = build_parser().parse_args(argv)

    if getattr(args, "verbose", False):
        from repro.logging_util import enable_console_logging

        enable_console_logging()

    resumable = args.command in _RESUMABLE_COMMANDS
    if resumable:
        _install_termination_handler()

    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's exit flush of
        # what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        output = getattr(args, "output", None)
        hint = (f"; checkpoint saved, continue with `epg resume {output}`"
                if resumable and output is not None else "")
        print(f"epg: interrupted{hint}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        print(f"epg: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _dispatch(args) -> int:
    if args.command == "systems":
        for s in available_systems():
            print(s)
        return 0

    if args.command == "datasets":
        from repro.datasets.catalog import catalog

        for entry in catalog():
            size = ("(synthetic family)" if entry.full_vertices is None
                    else f"full size {entry.full_vertices:,} vertices / "
                         f"{entry.full_edges:,} edges")
            flags = (("directed" if entry.directed else "undirected")
                     + ", "
                     + ("weighted" if entry.weighted else "unweighted"))
            print(f"{entry.name:<14}{entry.kind:<20}{flags:<24}{size}")
            print(f"{'':14}{entry.description}")
        return 0

    if args.command == "reproduce":
        from repro.core.suite import run_paper_suite

        report = run_paper_suite(args.output, scale=args.scale,
                                 n_roots=args.roots, seed=args.seed,
                                 render_svg=not args.no_svg,
                                 resume=args.resume, trace=args.trace,
                                 **_execution_kwargs(args))
        print(f"wrote {report}")
        _warn_if_degraded(args.output)
        return 0

    if args.command == "resume":
        from repro.core.suite import resume_paper_suite

        report = resume_paper_suite(args.output, jobs=args.jobs)
        print(f"wrote {report}")
        _warn_if_degraded(args.output)
        return 0

    if args.command == "compare":
        from repro.core.stats import compare_systems

        records = Experiment.load_csv(args.output / "results.csv")
        a, b = args.pair
        verdict = compare_systems(records, a, b, args.algorithm)
        print(verdict.summary())
        print(f"  {a}: median {verdict.median_a:.4g}s, 95% CI "
              f"[{verdict.ci_a[0]:.4g}, {verdict.ci_a[1]:.4g}]")
        print(f"  {b}: median {verdict.median_b:.4g}s, 95% CI "
              f"[{verdict.ci_b[0]:.4g}, {verdict.ci_b[1]:.4g}]")
        return 0

    if args.command == "feasibility":
        from repro.core.projection import WorkloadSize, check_feasibility
        from repro.systems import calibration

        size = WorkloadSize.kronecker(args.scale)
        print(f"workload: kron-scale{args.scale} "
              f"({size.n_vertices:,} vertices, {size.n_arcs:,} arcs)")
        systems = args.systems or list(ALL_SYSTEM_NAMES)
        header = (f"{'system':<12}{'algorithm':<11}{'est time':>12}"
                  f"{'est memory':>13}  verdict")
        print(header)
        print("-" * len(header))
        for system in systems:
            for algorithm in sorted(calibration._ANCHORS.get(system, {})):
                v = check_feasibility(
                    system, algorithm, size, n_threads=args.threads,
                    time_limit_s=args.time_limit)
                verdict = ("OK" if v.feasible
                           else f"NO ({v.limiting_factor})")
                print(f"{system:<12}{algorithm:<11}"
                      f"{v.est_runtime_s:>11.3g}s"
                      f"{v.est_memory_bytes / 1e9:>11.2f}GB  {verdict}")
        return 0

    if args.command == "trace":
        from repro.observability import (
            render_svg,
            render_text,
            resolve_events_path,
            tail_events,
            validate_events,
            write_chrome_trace,
        )

        path = resolve_events_path(args.output)
        events, truncated = tail_events(path, strict=args.strict)
        if args.validate:
            stats = validate_events(events, truncated_tail=truncated)
            orphaned = (f", {stats['orphans']} orphaned "
                        "(interrupted run)" if stats["orphans"] else "")
            torn = (", truncated final line (in-flight append?)"
                    if truncated else "")
            print(f"{path}: valid; {stats['spans']} spans / "
                  f"{stats['events']} events{orphaned}{torn}, sim end "
                  f"{stats['sim_end_s']:.3f}s, categories: "
                  + ", ".join(stats["categories"]))
        if args.chrome:
            out = write_chrome_trace(events, path.parent / "trace.json")
            print(f"wrote {out}")
        if args.svg:
            render_svg(events, path.parent / "timeline.svg")
            print(f"wrote {path.parent / 'timeline.svg'}")
        if not (args.validate or args.chrome or args.svg):
            print(render_text(events, max_depth=args.depth), end="")
        return 0

    if args.command == "metrics":
        import json

        from repro.observability import derive_metrics, read_events

        registry = derive_metrics(read_events(args.output))
        if args.json:
            print(json.dumps(registry.to_dict(), indent=2,
                             sort_keys=True))
        else:
            print(registry.to_prometheus(), end="")
        return 0

    if args.command == "verify":
        from repro.core.provenance import verify

        ok, problems = verify(args.output)
        if ok:
            print(f"{args.output}: provenance verified")
            return 0
        for problem in problems:
            print(f"{args.output}: {problem}")
        return 1

    if args.command == "traces":
        from repro.power.wattprof import PowerTrace

        tdir = args.output / "traces"
        csvs = sorted(tdir.glob("*.csv")) if tdir.is_dir() else []
        if not csvs:
            print(f"no traces under {tdir} (run with "
                  "capture_power_traces=True)")
            return 1
        for csv in csvs:
            svg = csv.with_suffix(".svg")
            PowerTrace.from_csv(csv).to_svg(svg, title=csv.stem)
            print(svg)
        return 0

    if args.command == "cache":
        return _dispatch_cache(args)

    if args.command == "stream":
        return _dispatch_stream(args)

    if args.command == "serve":
        from repro.service import QueryDaemon, ServeConfig

        cfg = ServeConfig(
            data_dir=args.data_dir, graphs=tuple(args.graphs),
            host=args.host, port=args.port, workers=args.workers,
            shards=args.shards,
            max_queue=args.max_queue, max_inflight=args.max_inflight,
            request_timeout_s=args.request_timeout,
            wedge_timeout_s=args.wedge_timeout,
            breaker_failures=args.breaker_failures,
            batch_window_s=args.batch_window,
            max_batch=args.max_batch,
            max_resident_bytes=args.max_resident_bytes,
            max_rps_per_client=args.max_rps_per_client,
            fault_spec=args.fault_spec, seed=args.seed,
            cache_dir=args.cache_dir,
            trace_dir=(args.data_dir / "trace" if args.trace
                       else None),
            drain_grace_s=args.drain_grace)
        return QueryDaemon(cfg).serve_forever()

    if args.command == "dash":
        from repro.dashboard import DashConfig, DashboardServer

        cfg = DashConfig(root=args.root, serve_url=args.serve_url,
                         host=args.host, port=args.port,
                         history=args.history,
                         max_depth=args.max_depth)
        return DashboardServer(cfg).serve_forever()

    if args.command == "loadgen":
        from repro.service import LoadGenerator

        gen = LoadGenerator(
            args.url, duration_s=args.duration, clients=args.clients,
            mode=args.mode, rps=args.rps, seed=args.seed,
            systems=tuple(args.systems),
            algorithms=tuple(args.algorithms),
            n_threads=args.threads)
        report = gen.run()
        print(report.summary(dash_url=args.dash_url))
        if args.report is not None:
            path = LoadGenerator.write_report(report, args.report)
            print(f"wrote {path}")
        if report.dirty_responses:
            raise ServiceError(
                f"{report.dirty_responses} dirty response(s): see "
                "status counts above")
        return 0

    if args.command == "viz":
        from repro.core.analysis import Analysis
        from repro.viz import render_all_figures

        records = Experiment.load_csv(args.output / "results.csv")
        figures_dir = args.figures_dir or (args.output / "figures")
        rendered = render_all_figures(Analysis(records), figures_dir)
        for fig, paths in sorted(rendered.items()):
            for p in paths:
                print(p)
        return 0

    if args.command == "graphalytics":
        from repro.graphalytics import GraphalyticsHarness, render_table

        config = _config_from_args(args)
        exp = Experiment(config)
        exp.setup()
        dataset = exp.homogenize()
        harness = GraphalyticsHarness(machine=config.machine)
        results = harness.run_matrix(dataset)
        print(render_table(results))
        return 0

    config = _config_from_args(args)
    exp = Experiment(config)

    if args.command == "setup":
        systems = exp.setup()
        print(f"installed systems: {', '.join(systems)}")
    elif args.command == "homogenize":
        exp.setup()
        ds = exp.homogenize()
        print(f"homogenized {ds.name}: n={ds.n_vertices} m={ds.n_edges} "
              f"-> {ds.directory}")
    elif args.command == "run":
        exp.setup()
        exp.homogenize()
        paths = exp.run()
        print(f"wrote {len(paths)} log files under "
              f"{config.output_dir / 'logs'}")
        _warn_if_degraded(config.output_dir)
    elif args.command == "parse":
        csv = exp.parse()
        print(f"wrote {csv}")
    elif args.command in ("analyze", "all"):
        if args.command == "all":
            analysis = exp.run_all()
        else:
            analysis = exp.analyze()
        from repro.core.report import figure_series, format_box_table

        if args.figure:
            print(figure_series(analysis, args.figure))
        else:
            print(format_box_table(
                "Kernel time by (system, algorithm)",
                {f"{k[0]}/{k[1]}": v
                 for k, v in analysis.box("time").items()}))
        if args.command == "all":
            _warn_if_degraded(config.output_dir)
    return 0


def _dispatch_stream(args) -> int:
    """``epg stream --output <dir> [--scale S --check --trace ...]``."""
    from repro.observability.tracer import Tracer
    from repro.streaming import (
        StreamReplay,
        StreamSpec,
        build_scenario,
        write_results_csv,
    )

    weighted = not args.unweighted
    if "sssp" in args.algorithms and not weighted:
        raise ConfigError("--unweighted excludes sssp; drop one of them")
    spec = StreamSpec(scale=args.scale, n_batches=args.batches,
                      batch_edges=args.batch_edges,
                      delete_fraction=args.delete_frac,
                      seed=args.seed, weighted=weighted)
    cache = None
    if args.cache_dir is not None:
        from repro.cache import ArtifactCache

        cache = ArtifactCache(args.cache_dir)
    scenario = build_scenario(spec, cache=cache)

    args.output.mkdir(parents=True, exist_ok=True)
    tracer = (Tracer(args.output / "trace") if args.trace else Tracer())
    try:
        replay = StreamReplay(scenario, algorithms=tuple(args.algorithms),
                              tracer=tracer, check=args.check)
        results = replay.run()
    finally:
        tracer.close()

    csv = args.output / "stream_results.csv"
    write_results_csv(results, csv)
    inserted = sum(r.n_inserted for r in results)
    removed = sum(r.n_removed for r in results)
    checked = sum(r.checked for r in results)
    print(f"{spec.name}: {len(results)} batches over "
          f"{scenario.n_vertices} vertices (root {scenario.root}); "
          f"+{inserted} / -{removed} arcs, final {results[-1].n_arcs}"
          + (f"; {checked} oracle checks passed" if args.check else ""))
    print(f"wrote {csv}")
    return 0


def _dispatch_cache(args) -> int:
    """``epg cache ls|gc|verify|clear --dir <cache>``."""
    from repro.cache import ArtifactCache

    if not args.cache_dir.is_dir():
        raise CacheError(f"{args.cache_dir}: not a cache directory")
    cache = ArtifactCache(args.cache_dir, max_bytes=args.max_bytes)

    if args.action == "ls":
        entries = cache.entries()
        for e in entries:
            print(f"{e.key}  {e.kind:<16}{e.size_bytes:>12}  "
                  f"last used {e.last_used}")
        total = cache.total_bytes()
        print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
              f"{total} bytes")
        return 0

    if args.action == "gc":
        evicted = cache.gc(args.max_bytes)
        for key in evicted:
            print(f"evicted {key}")
        print(f"{len(evicted)} evicted, {cache.total_bytes()} bytes kept")
        return 0

    if args.action == "verify":
        problems = cache.verify()
        for problem in problems:
            print(problem)
        n = len(cache.entries())
        if problems:
            print(f"{len(problems)} corrupt entr"
                  f"{'y' if len(problems) == 1 else 'ies'} evicted, "
                  f"{n} kept")
            return 1
        print(f"{n} entr{'y' if n == 1 else 'ies'} verified")
        return 0

    # clear
    n = cache.clear()
    print(f"removed {n} entr{'y' if n == 1 else 'ies'}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
