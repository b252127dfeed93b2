"""The full-paper reproduction suite: every table and figure, one call.

``run_paper_suite(out_dir)`` executes the complete evaluation of
Sec. II + IV at a configurable reduced scale and writes one directory:

.. code-block:: text

    <out>/
        REPORT.md            every table + figure series, with captions
        suite.json           the suite's own resume manifest
        figures/*.svg        rendered Figs 2-6, 8, 9
        kron/  dota/  pat/   the underlying EPG* experiment dirs
        scaling/             the Figs 5-6 thread sweep
        graphalytics/        comparator HTML reports (Fig 7)
        kron/provenance.json (and scaling/) digests for re-verification
        */checkpoint.json    per-experiment cell ledgers (resume state)

This is what ``epg reproduce`` runs, and what EXPERIMENTS.md's numbers
come from (at the bench scale).

Resilience: every experiment cell runs under the retry/quarantine
supervisor (:mod:`repro.resilience`), so a crashing or hanging cell
degrades the report instead of discarding it, and the REPORT.md always
ends with a "Failures and retries" ledger.  An interrupted invocation
can be continued with ``run_paper_suite(..., resume=True)`` or
:func:`resume_paper_suite` (the ``epg resume <dir>`` command): already
completed cells are skipped and -- the seed fixing everything -- the
final REPORT.md is byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.analysis import Analysis
from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.core.projection import PAPER_SCALING_SCALE, projected_scalability
from repro.core.report import (
    figure_series,
    format_failures_section,
    format_observability_section,
    format_series,
    format_table,
)
from repro.errors import CheckpointError, ConfigError
from repro.ioutil import atomic_write_json
from repro.observability import Tracer
from repro.resilience import SuiteCheckpoint

__all__ = ["run_paper_suite", "resume_paper_suite", "SUITE_MANIFEST"]

_SCALING_SYSTEMS = ("gap", "graph500", "graphbig", "graphmat")
_THREADS = (1, 2, 4, 8, 16, 32, 64, 72)
_SUBDIRS = ("kron", "dota", "pat", "scaling", "structural")
_STRUCTURAL_ALGOS = ("kcore", "mis", "cc")
_STRUCTURAL_SYSTEMS = ("gap", "graphbig", "graphmat", "powergraph")

#: Suite-level manifest: the parameters ``epg resume`` needs to
#: continue an interrupted invocation with identical settings.
SUITE_MANIFEST = "suite.json"


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


#: Manifest keys every version of the suite has written; the later
#: ones default as in ``run_paper_suite``'s signature.
_MANIFEST_REQUIRED = ("scale", "n_roots", "seed", "render_svg",
                      "max_retries", "cell_timeout_s", "fault_spec")

#: The execution options ``run_paper_suite`` forwards verbatim to every
#: :class:`ExperimentConfig` it builds (same names there).
_CONFIG_OPTIONS = ("max_retries", "cell_timeout_s", "fault_spec",
                   "shards", "cache_dir", "cache_max_bytes")


def run_paper_suite(out_dir: str | Path, scale: int = 12,
                    n_roots: int = 8, seed: int = 20170402,
                    render_svg: bool = True, *, resume: bool = False,
                    max_retries: int = 2,
                    cell_timeout_s: float | None = None,
                    fault_spec: str | None = None,
                    trace: bool = False,
                    jobs: int = 1,
                    shards: int = 1,
                    cache_dir: str | Path | None = None,
                    cache_max_bytes: int | None = None) -> Path:
    """Run everything; return the REPORT.md path.

    ``resume=False`` (the default) starts fresh, clearing any
    checkpoints a previous invocation left in ``out_dir``;
    ``resume=True`` keeps them, so only unfinished cells execute.
    ``trace=True`` records the whole run as hierarchical spans under
    ``<out>/trace/`` (event log, Chrome trace, Prometheus snapshot,
    timeline SVG) and appends an Observability section to REPORT.md.
    ``jobs`` greater than one fans independent cells out to that many
    worker processes (``epg reproduce --jobs``); results are committed
    in canonical order, so the report is byte-identical to a one-job
    run's (see ``docs/parallel.md``).
    ``cache_dir`` enables the persistent artifact cache there
    (``epg reproduce --cache-dir``); ``cache_max_bytes`` sets its LRU
    garbage-collection budget.  The cache is byte-transparent (see
    ``docs/cache.md``), so warm and cold reports are identical.
    ``shards`` greater than one splits each BFS/SSSP kernel execution
    across that many worker processes (``epg reproduce --shards``;
    see ``docs/sharding.md``) -- like ``jobs`` and the cache, an
    execution detail that never changes a reported byte.
    """
    from repro.parallel import CellPool

    # What ``resume_paper_suite`` replays as keyword arguments.
    manifest = dict(
        scale=scale, n_roots=n_roots, seed=seed, render_svg=render_svg,
        max_retries=max_retries, cell_timeout_s=cell_timeout_s,
        fault_spec=fault_spec, trace=trace, jobs=jobs, shards=shards,
        cache_dir=None if cache_dir is None else str(cache_dir),
        cache_max_bytes=cache_max_bytes)
    options = {k: manifest[k] for k in _CONFIG_OPTIONS}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # First, so a resume onto a corrupt event log stops before any work.
    tracer = (Tracer(out_dir / "trace", resume=resume) if trace
              else Tracer())
    if not resume:
        for sub in _SUBDIRS:
            SuiteCheckpoint.clear(out_dir / sub)
    atomic_write_json(out_dir / SUITE_MANIFEST, manifest)
    pool = CellPool(jobs)
    try:
        with tracer.span("suite", category="suite", scale=scale,
                         n_roots=n_roots, seed=seed):
            sections, kron, figures = _suite_sections(
                out_dir, scale, n_roots, seed, render_svg, options,
                tracer, pool)
        observability = None
        if tracer.enabled:
            observability = _export_trace(tracer, render_svg)
            sections.append(observability)

        from repro.core.html_report import render_epg_html

        render_epg_html(kron, out_dir / "report.html",
                        title=f"EPG* report: kron-scale{scale}",
                        figures=figures, observability=observability)
    finally:
        pool.close()
        tracer.close()

    report = out_dir / "REPORT.md"
    report.write_text("\n".join(sections), encoding="utf-8")
    return report


def _export_trace(tracer: Tracer, want_svg: bool) -> str:
    """Write the trace artifacts; return the Observability section."""
    from repro.observability import (
        derive_metrics,
        read_events,
        render_svg as render_timeline,
        write_chrome_trace,
    )

    tracer.flush()
    events = read_events(tracer.path)
    trace_dir = tracer.directory
    write_chrome_trace(events, trace_dir / "trace.json")
    registry = derive_metrics(events)
    (trace_dir / "metrics.prom").write_text(registry.to_prometheus(),
                                            encoding="utf-8")
    atomic_write_json(trace_dir / "metrics.json", registry.to_dict())
    if want_svg:
        render_timeline(events, trace_dir / "timeline.svg")
    return format_observability_section(events, registry)


def _suite_sections(out_dir: Path, scale: int, n_roots: int, seed: int,
                    render_svg: bool, options: dict,
                    tracer: Tracer, pool
                    ) -> tuple[list[str], Analysis, list[Path]]:
    """Run every experiment; return (REPORT sections, kron analysis,
    the SVG figures written)."""
    sections: list[str] = [
        "# easy-parallel-graph-* full reproduction report",
        f"\nKronecker scale {scale}, {n_roots} roots, seed {seed}; "
        "see EXPERIMENTS.md for the paper-vs-measured ledger.\n",
    ]

    # --- main Kronecker experiment (Figs 2-4, 9; Table III) ----------
    kron_cfg = ExperimentConfig(
        output_dir=out_dir / "kron", dataset="kronecker", scale=scale,
        n_roots=n_roots, seed=seed,
        algorithms=("bfs", "sssp", "pagerank"), **options)
    kron_exp = Experiment(kron_cfg, tracer=tracer)
    with tracer.span("experiment:kron", category="experiment",
                     dataset="kronecker", scale=scale):
        kron = kron_exp.run_all(pool=pool)
    for fig, caption in (("fig2", "Fig 2: BFS time and construction"),
                         ("fig3", "Fig 3: SSSP time and construction"),
                         ("fig4", "Fig 4: PageRank time / iterations"),
                         ("fig9", "Fig 9: power during BFS")):
        sections.append(_section(caption, figure_series(kron, fig)))

    table3 = kron.energy_table("bfs", threads=32)
    systems = sorted(table3)
    rows = {
        "Time (s)": [f"{table3[s].time_s:.5g}" for s in systems],
        "Average Power per Root (W)": [
            f"{table3[s].avg_pkg_watts:.2f}" for s in systems],
        "Energy per Root (J)": [
            f"{table3[s].pkg_energy_j:.4g}" for s in systems],
        "Sleeping Energy (J)": [
            f"{table3[s].sleep_energy_j:.4g}" for s in systems],
        "Increase over Sleep": [
            f"{table3[s].increase_over_sleep:.3f}" for s in systems],
    }
    sections.append(_section(
        "Table III: BFS energy accounting",
        format_table("", [s.upper() for s in systems], rows)))

    # --- real-world experiments (Fig 8) -------------------------------
    rw_records = []
    rw_exps: dict[str, Experiment] = {}
    for ds, sub in (("dota-league", "dota"), ("cit-patents", "pat")):
        cfg = ExperimentConfig(
            output_dir=out_dir / sub, dataset=ds, n_roots=n_roots,
            seed=seed, algorithms=("bfs", "sssp", "pagerank"),
            **options)
        exp = Experiment(cfg, tracer=tracer)
        with tracer.span(f"experiment:{sub}", category="experiment",
                         dataset=ds):
            rw_records.extend(exp.run_all(pool=pool).records)
        rw_exps[sub] = exp
    merged = Analysis(rw_records, machine=kron_cfg.machine)
    sections.append(_section("Fig 8: real-world comparison",
                             figure_series(merged, "fig8")))

    # --- scalability (Figs 5-6): projection + bench-scale kernels ----
    proj = {s: projected_scalability(s, thread_counts=_THREADS)
            for s in _SCALING_SYSTEMS}
    sections.append(_section(
        f"Fig 5: BFS speedup (projected, scale {PAPER_SCALING_SCALE})",
        format_series("", "threads", list(_THREADS),
                      {s: t.speedup() for s, t in proj.items()})))
    sections.append(_section(
        "Fig 6: BFS parallel efficiency (projected)",
        format_series("", "threads", list(_THREADS),
                      {s: t.efficiency() for s, t in proj.items()})))

    scaling_cfg = ExperimentConfig(
        output_dir=out_dir / "scaling", dataset="kronecker",
        scale=scale, n_roots=min(n_roots, 4), seed=seed,
        algorithms=("bfs",), thread_counts=_THREADS, **options)
    scaling_exp = Experiment(scaling_cfg, tracer=tracer)
    with tracer.span("experiment:scaling", category="experiment",
                     dataset="kronecker"):
        scaling = scaling_exp.run_all(pool=pool)
    # Quarantined cells degrade a system's curve to absence, the way
    # the paper's figures simply omit what would not run.
    bench_speedups = {}
    for s in _SCALING_SYSTEMS:
        try:
            bench_speedups[s] = scaling.scalability(s, "bfs").speedup()
        except ConfigError:
            continue
    sections.append(_section(
        "Fig 5 (bench-scale real kernels)",
        format_series("", "threads", list(_THREADS), bench_speedups)))

    # --- structural kernels (docs/algorithms.md; beyond the paper) ----
    struct_cfg = ExperimentConfig(
        output_dir=out_dir / "structural", dataset="kronecker",
        scale=scale, n_roots=min(n_roots, 2), seed=seed,
        algorithms=_STRUCTURAL_ALGOS, **options)
    struct_exp = Experiment(struct_cfg, tracer=tracer)
    with tracer.span("experiment:structural", category="experiment",
                     dataset="kronecker", scale=scale):
        struct = struct_exp.run_all(pool=pool)
    struct_rows = {}
    for algo in _STRUCTURAL_ALGOS:
        cells = []
        for s in _STRUCTURAL_SYSTEMS:
            try:
                cells.append(f"{struct.mean_time(s, algo):.5g}")
            except ConfigError:
                # Unsupported (or quarantined) cell: absent, the way
                # the paper's tables leave holes.
                cells.append("-")
        struct_rows[algo] = cells
    sections.append(_section(
        "Structural kernels: k-core / MIS / CC time (s, 32 threads)",
        format_table("", [s.upper() for s in _STRUCTURAL_SYSTEMS],
                     struct_rows)))

    # --- streaming ingest + incremental repair (docs/streaming.md) ----
    # Inline and oracle-checked; every cell below is a deterministic
    # counter (no wall times), so the section is byte-identical across
    # --jobs settings and hosts.
    from repro.streaming import StreamReplay, StreamSpec, build_scenario

    stream_spec = StreamSpec(scale=min(scale, 10), n_batches=4,
                             batch_edges=32, delete_fraction=0.25,
                             seed=seed, weighted=True)
    with tracer.span("experiment:stream", category="experiment",
                     scale=stream_spec.scale,
                     n_batches=stream_spec.n_batches):
        stream_scenario = build_scenario(stream_spec)
        stream_replay = StreamReplay(stream_scenario, tracer=tracer,
                                     check=True)
        stream_rows_raw = stream_replay.run()
    stream_dir = out_dir / "stream"
    stream_dir.mkdir(parents=True, exist_ok=True)
    from repro.streaming import write_results_csv

    write_results_csv(stream_rows_raw,
                      stream_dir / "stream_results.csv")
    stream_rows = {
        f"batch {r.batch}": [
            str(r.n_inserted), str(r.n_updated), str(r.n_removed),
            str(r.n_arcs), str(r.bfs_resettled), str(r.sssp_resettled),
            str(r.pagerank_sweeps), str(r.checked)]
        for r in stream_rows_raw}
    sections.append(_section(
        f"Streaming ingest: incremental repair vs oracle "
        f"(kron-scale{stream_spec.scale}, "
        f"{stream_spec.n_batches} batches)",
        format_table("", ["new", "upd", "del", "arcs", "bfs fix",
                          "sssp fix", "pr sweeps", "checks"],
                     stream_rows)))

    # --- Graphalytics comparator (Tables I-II, Fig 7) -----------------
    from repro.datasets.homogenize import load_manifest
    from repro.graphalytics import (
        GraphalyticsHarness,
        render_html_report,
        render_table,
    )

    harness = GraphalyticsHarness(machine=kron_cfg.machine, seed=seed)
    dota_ds = load_manifest(out_dir / "dota" / "datasets" / "dota-league")
    pat_ds = load_manifest(out_dir / "pat" / "datasets" / "cit-Patents")
    kron_ds = load_manifest(
        out_dir / "kron" / "datasets" / f"kron-scale{scale}")
    # Fork safety before a submission batch (see repro.parallel).
    tracer.flush()
    t1 = (harness.run_matrix(dota_ds, pool=pool)
          + harness.run_matrix(pat_ds, pool=pool))
    sections.append(_section(
        "Table I: Graphalytics on the real-world datasets",
        render_table(t1)))
    t2 = harness.run_matrix(
        kron_ds, algorithms=("cdlp", "pagerank", "lcc", "wcc", "bfs"),
        pool=pool)
    sections.append(_section(
        "Table II: Graphalytics on the Kronecker graph",
        render_table(t2)))
    render_html_report(t1 + t2, out_dir / "graphalytics")
    sections.append("## Fig 7: Graphalytics HTML reports\n\nWritten "
                    "under `graphalytics/` (one page per platform).\n")

    # --- failures and retries ledger ----------------------------------
    sections.append(format_failures_section({
        "kron": kron_exp.cell_outcomes,
        "dota": rw_exps["dota"].cell_outcomes,
        "pat": rw_exps["pat"].cell_outcomes,
        "scaling": scaling_exp.cell_outcomes,
        "structural": struct_exp.cell_outcomes,
    }))

    # --- figures + provenance -----------------------------------------
    # Each figure once, from the experiment its REPORT section plots.
    rendered: dict[str, list[Path]] = {}
    if render_svg:
        from repro.viz import render_all_figures

        for analysis, figs in ((kron, ("fig2", "fig3", "fig4", "fig9")),
                               (merged, ("fig8",)),
                               (scaling, ("fig5", "fig6"))):
            rendered.update(render_all_figures(
                analysis, out_dir / "figures", figs))

    from repro.core.provenance import capture

    for cfg in (kron_cfg, scaling_cfg):
        capture(cfg)

    return sections, kron, [p for fig in sorted(rendered)
                            for p in rendered[fig]]


def resume_paper_suite(out_dir: str | Path,
                       jobs: int | None = None) -> Path:
    """Continue an interrupted ``run_paper_suite`` invocation.

    Reads the parameters the interrupted run recorded in ``suite.json``
    and re-enters the suite with ``resume=True``: completed cells are
    skipped (their outcomes reload from each experiment's
    ``checkpoint.json``) and the final REPORT.md is byte-identical to
    what the uninterrupted run would have produced.  ``jobs`` overrides
    the interrupted run's worker count (the default reuses it) -- the
    job count never affects results, so resuming a ``--jobs 8`` run
    serially, or vice versa, is safe.
    """
    out_dir = Path(out_dir)
    mpath = out_dir / SUITE_MANIFEST
    if not mpath.exists():
        raise CheckpointError(
            f"{mpath}: no suite manifest; nothing to resume")
    try:
        params = json.loads(mpath.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{mpath}: corrupt suite manifest ({exc})") from exc
    missing = [k for k in _MANIFEST_REQUIRED if k not in params]
    if missing:
        raise CheckpointError(
            f"{mpath}: suite manifest missing key {missing[0]!r}")
    if jobs is not None:
        params["jobs"] = jobs
    return run_paper_suite(out_dir, resume=True, **params)
