"""One SVG renderer per paper figure.

``render_figure(analysis, "fig2", out_dir)`` writes the SVG(s) for one
figure from an :class:`~repro.core.analysis.Analysis`;
``render_all_figures`` sweeps whatever figures the record set supports.
Figures 5/6 accept either measured analyses (with thread sweeps) or the
full-scale projection tables.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from repro.core.analysis import Analysis
from repro.errors import ConfigError
from repro.viz.charts import bar_chart, box_plot, line_chart

__all__ = ["render_figure", "render_all_figures", "FIGURES"]

FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig8", "fig9")


def _times_box(analysis: Analysis, algorithm: str):
    return {k[0]: v for k, v in analysis.box("time").items()
            if k[1] == algorithm}


def _fig_time_and_build(analysis, algorithm, fig, out_dir, titles):
    paths = []
    times = _times_box(analysis, algorithm)
    if not times:
        raise ConfigError(f"no {algorithm} records for {fig}")
    paths.append(box_plot(times, titles[0]).write(
        Path(out_dir) / f"{fig}-time.svg"))
    builds = {k[0]: v for k, v in
              analysis.construction_box(algorithm).items()}
    if builds:
        paths.append(box_plot(builds, titles[1]).write(
            Path(out_dir) / f"{fig}-construction.svg"))
    return paths


def render_figure(analysis: Analysis, figure: str,
                  out_dir: str | Path) -> list[Path]:
    """Write one figure's SVG file(s); returns the paths."""
    out_dir = Path(out_dir)
    if figure == "fig2":
        return _fig_time_and_build(
            analysis, "bfs", "fig2", out_dir,
            ("BFS Time", "BFS Data Structure Construction"))
    if figure == "fig3":
        return _fig_time_and_build(
            analysis, "sssp", "fig3", out_dir,
            ("SSSP Time", "SSSP Data Structure Construction"))
    if figure == "fig4":
        times = _times_box(analysis, "pagerank")
        if not times:
            raise ConfigError("no pagerank records for fig4")
        paths = [box_plot(times, "PageRank Time").write(
            out_dir / "fig4-time.svg")]
        iters = analysis.iterations("pagerank")
        if iters:
            names = sorted(iters)
            paths.append(bar_chart(
                names, {"iterations": [iters[n] for n in names]},
                "PageRank Iterations", "Iterations").write(
                out_dir / "fig4-iterations.svg"))
        return paths
    if figure in ("fig5", "fig6"):
        threads = analysis.thread_counts()
        if len(threads) < 2:
            raise ConfigError("figs 5/6 need a thread sweep")
        series = {}
        for system in analysis.systems():
            try:
                tab = analysis.scalability(system, "bfs")
            except ConfigError:
                continue
            series[system] = (tab.speedup() if figure == "fig5"
                              else tab.efficiency())
        if figure == "fig5":
            chart = line_chart(
                [float(t) for t in threads], series, "BFS Speedup",
                "Threads", "Speedup", log_x=True, log_y=True,
                ideal=[float(t) for t in threads])
            return [chart.write(out_dir / "fig5-speedup.svg")]
        chart = line_chart(
            [float(t) for t in threads], series,
            "BFS Parallel Efficiency", "Threads", "T1/(n Tn)",
            log_x=True, ideal=[1.0] * len(threads))
        return [chart.write(out_dir / "fig6-efficiency.svg")]
    if figure == "fig8":
        datasets = analysis.datasets()
        algos = [a for a in ("bfs", "pagerank", "sssp")
                 if a in analysis.algorithms()]
        if not algos:
            raise ConfigError("no fig8-relevant records")
        paths = []
        for algo in algos:
            series = {}
            for system in analysis.systems():
                vals = []
                for ds in datasets:
                    try:
                        vals.append(analysis.mean_time(system, algo, ds))
                    except ConfigError:
                        vals.append(None)
                if any(v is not None for v in vals):
                    series[system] = vals
            paths.append(bar_chart(
                datasets, series, f"Mean {algo} time", "Time (s)").write(
                out_dir / f"fig8-{algo}.svg"))
        return paths
    if figure == "fig9":
        paths = []
        for metric, label, base in (
                ("dram_watts", "RAM Power Consumption During BFS",
                 analysis.machine.idle_dram_watts),
                ("pkg_watts", "CPU Average Power Consumption During BFS",
                 analysis.machine.idle_pkg_watts)):
            boxes = analysis.power_box(metric, "bfs")
            if not boxes:
                raise ConfigError("no power records for fig9")
            paths.append(box_plot(
                boxes, label, y_label="Average Power (Watts)",
                log_y=False, baseline=base,
                baseline_label="sleep").write(
                out_dir / f"fig9-{metric}.svg"))
        return paths
    raise ConfigError(f"unknown figure {figure!r}")


def render_all_figures(analysis: Analysis, out_dir: str | Path,
                       figures: Iterable[str] = FIGURES
                       ) -> dict[str, list[Path]]:
    """Render each of ``figures`` the record set has data for."""
    out: dict[str, list[Path]] = {}
    for fig in figures:
        try:
            out[fig] = render_figure(analysis, fig, out_dir)
        except (ConfigError, ValueError):
            continue
    return out
