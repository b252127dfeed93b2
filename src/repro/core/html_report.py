"""EPG*'s own HTML report — the answer to Graphalytics' Fig 7 page.

The paper contrasts Graphalytics' single-trial HTML tables with EPG*'s
distribution-bearing output.  This module closes the loop: one
self-contained HTML page per experiment with the five-number summary
tables, the inline SVG figures, and the run coordinates — everything
Graphalytics' page shows, plus the distributions it cannot.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path
from xml.sax.saxutils import escape

from repro.core.analysis import Analysis, BoxStats
from repro.errors import ConfigError

__all__ = ["render_epg_html"]

_STYLE = """
body { font-family: sans-serif; margin: 2em auto; max-width: 70em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #999; padding: 4px 10px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
h1 { border-bottom: 2px solid #1b6ca8; }
figure { display: inline-block; margin: 1em; }
.note { color: #555; font-size: 0.9em; }
"""


def _box_table_html(title: str, boxes: dict[str, BoxStats]) -> str:
    rows = []
    for name in sorted(boxes):
        b = boxes[name]
        rows.append(
            f"<tr><td>{escape(name)}</td><td>{b.n}</td>"
            f"<td>{b.minimum:.4g}</td><td>{b.q1:.4g}</td>"
            f"<td>{b.median:.4g}</td><td>{b.q3:.4g}</td>"
            f"<td>{b.maximum:.4g}</td><td>{b.rsd:.2f}</td></tr>")
    return (
        f"<h2>{escape(title)}</h2>"
        "<table><tr><th>group</th><th>n</th><th>min</th><th>q1</th>"
        "<th>median</th><th>q3</th><th>max</th><th>rsd</th></tr>"
        + "".join(rows) + "</table>")


def render_epg_html(analysis: Analysis, out_path: str | Path,
                    title: str = "easy-parallel-graph-* report",
                    figures: Iterable[Path] = (),
                    observability: str | None = None) -> Path:
    """Write one self-contained HTML report for an analysis.

    ``figures`` are already-rendered SVG files to embed, in order.
    ``observability`` is an optional preformatted text block (the
    REPORT.md Observability section) appended when tracing was on.
    """
    if not analysis.records:
        raise ConfigError("nothing to report")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{escape(title)}</h1>",
        "<p class='note'>Every cell is a distribution over "
        f"{max(b.n for b in analysis.box('time').values())} runs "
        "&mdash; unlike a certain comparator's single-trial tables "
        "(paper Sec. II).</p>",
        f"<p>datasets: {', '.join(analysis.datasets())}; systems: "
        f"{', '.join(analysis.systems())}; threads: "
        f"{', '.join(map(str, analysis.thread_counts()))}</p>",
    ]

    for algo in analysis.algorithms():
        boxes = {k[0]: v for k, v in analysis.box("time").items()
                 if k[1] == algo}
        if boxes:
            parts.append(_box_table_html(
                f"{algo} kernel time (s)", boxes))

    builds = {f"{k[0]}": v
              for k, v in analysis.construction_box("bfs").items()}
    if builds:
        parts.append(_box_table_html(
            "data structure construction (s)", builds))

    power = analysis.power_box("pkg_watts", "bfs")
    if power:
        parts.append(_box_table_html("CPU power during BFS (W)", power))

    iters = analysis.iterations("pagerank")
    if iters:
        rows = "".join(f"<tr><td>{escape(s)}</td><td>{v:.0f}</td></tr>"
                       for s, v in sorted(iters.items()))
        parts.append("<h2>PageRank iterations</h2><table>"
                     "<tr><th>system</th><th>iterations</th></tr>"
                     + rows + "</table>")

    for p in figures:
        svg = p.read_text(encoding="utf-8")
        # Strip the XML prolog for inline embedding.
        svg_body = svg[svg.index("<svg"):]
        parts.append(f"<figure>{svg_body}"
                     f"<figcaption>{escape(p.stem)}</figcaption></figure>")

    if observability:
        parts.append("<h2>Observability</h2>"
                     f"<pre>{escape(observability)}</pre>")

    parts.append("</body></html>")
    out_path.write_text("".join(parts), encoding="utf-8")
    return out_path
