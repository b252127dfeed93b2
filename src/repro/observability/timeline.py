"""Span-tree renderers: indented text and an SVG Gantt timeline.

Both render the *simulated* timeline -- the deterministic clock the
paper's figures are built on -- so re-running a seed reproduces the
picture exactly.  The SVG renderer reuses :mod:`repro.viz.svg`, the
same dependency-free canvas the figure pipeline draws with.
"""

from __future__ import annotations

from pathlib import Path

from repro.observability.export import span_events, spans_by_id

__all__ = ["span_tree", "render_text", "render_svg", "slowest_spans"]

#: Fill colours keyed by span category (SVG renderer).
_CATEGORY_FILL = {
    "suite": "#4c72b0",
    "experiment": "#55a868",
    "pipeline": "#8172b2",
    "cell": "#c44e52",
    "attempt": "#ccb974",
    "phase": "#64b5cd",
    "exec": "#8c8c8c",
    "dataset": "#937860",
    "harness": "#b0b0b0",
}


def span_tree(events: list[dict]) -> tuple[list[dict], dict]:
    """Return (root spans, id -> children) in simulated-time order.

    Raises :class:`~repro.errors.TraceError` on a duplicated span id,
    the one defect that could make a walk of the tree loop.
    """
    spans = sorted(span_events(events),
                   key=lambda ev: (ev["t0_sim"], ev["id"]))
    children: dict[int, list[dict]] = {}
    roots: list[dict] = []
    ids = spans_by_id(spans)
    for ev in spans:
        parent = ev["parent"]
        if parent is None or parent not in ids:
            roots.append(ev)
        else:
            children.setdefault(parent, []).append(ev)
    return roots, children


def _label(ev: dict) -> str:
    attrs = ev.get("attrs") or {}
    bits = [ev["name"]]
    status = attrs.get("status")
    if status and status != "ok":
        bits.append(f"[{status}]")
    reason = attrs.get("failure_reason")
    if reason:
        bits.append(f"({reason})")
    return " ".join(bits)


def render_text(events: list[dict], max_depth: int | None = None) -> str:
    """Indented span tree with simulated durations and wall overhead."""
    roots, children = span_tree(events)
    lines: list[str] = []

    def visit(ev: dict, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        sim = ev["t1_sim"] - ev["t0_sim"]
        wall = ev["t1_wall"] - ev["t0_wall"]
        lines.append(f"{'  ' * depth}{_label(ev)}  "
                     f"sim={sim:.6f}s wall={wall:.6f}s")
        for child in children.get(ev["id"], ()):
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines) + ("\n" if lines else "")


def slowest_spans(events: list[dict], n: int = 5,
                  categories: tuple[str, ...] | None = None
                  ) -> list[dict]:
    """Top-``n`` spans by simulated duration (optionally by category)."""
    spans = span_events(events)
    if categories:
        spans = [ev for ev in spans if ev["cat"] in categories]
    return sorted(spans, key=lambda ev: ev["t0_sim"] - ev["t1_sim"])[:n]


def render_svg(events: list[dict], out_path: str | Path | None = None,
               width: float = 960.0, row_h: float = 16.0,
               max_depth: int | None = None) -> str:
    """Gantt-style timeline: one row per span, nested by depth.

    Span and dataset names are user/config-controlled strings; every
    path they take into the markup (row label, hover tooltip) goes
    through XML escaping, so a name like ``<script>`` renders as text
    rather than as an element.  ``max_depth`` drops rows below that
    nesting depth (the dashboard's timeline page uses it to keep
    in-flight renders small); ``None`` renders everything.
    """
    # Imported here, not at module scope: repro.viz pulls in repro.core,
    # which imports repro.systems.base, which imports this package --
    # a top-level import would make the cycle unresolvable.
    from repro.viz.svg import SvgCanvas, nice_ticks

    roots, children = span_tree(events)
    rows: list[tuple[dict, int]] = []

    def visit(ev: dict, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        rows.append((ev, depth))
        for child in children.get(ev["id"], ()):
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)

    margin_l, margin_r, margin_t, margin_b = 220.0, 20.0, 30.0, 30.0
    t_end = max((ev["t1_sim"] for ev, _ in rows), default=1.0) or 1.0
    plot_w = width - margin_l - margin_r
    height = margin_t + margin_b + row_h * max(len(rows), 1)
    canvas = SvgCanvas(width, height)
    canvas.text(margin_l, 18, "simulated timeline (s)", size=12)

    def x_of(t: float) -> float:
        return margin_l + plot_w * (t / t_end)

    for tick in nice_ticks(0.0, t_end):
        x = x_of(tick)
        canvas.line(x, margin_t, x, height - margin_b,
                    stroke="#dddddd")
        canvas.text(x, height - margin_b + 14, f"{tick:g}",
                    size=9, anchor="middle", fill="#555555")

    for i, (ev, depth) in enumerate(rows):
        y = margin_t + i * row_h
        x0 = x_of(ev["t0_sim"])
        x1 = x_of(ev["t1_sim"])
        fill = _CATEGORY_FILL.get(ev["cat"], "#999999")
        sim = ev["t1_sim"] - ev["t0_sim"]
        wall = ev["t1_wall"] - ev["t0_wall"]
        # Full (untruncated) label as a hover tooltip; SvgCanvas
        # escapes it, so hostile dataset/system names stay inert text.
        canvas.rect(x0, y + 2, max(x1 - x0, 0.75), row_h - 4,
                    fill=fill, stroke="none", opacity=0.9,
                    title=f"{_label(ev)} [{ev['cat']}] "
                          f"sim={sim:.6f}s wall={wall:.6f}s")
        canvas.text(margin_l - 6, y + row_h - 5,
                    ("  " * min(depth, 8)) + _label(ev)[:34],
                    size=9, anchor="end", fill="#333333")

    svg = canvas.to_string()
    if out_path is not None:
        out = Path(out_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(svg, encoding="utf-8")
    return svg
