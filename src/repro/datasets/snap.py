"""SNAP edge-list text format.

Per the paper's footnote 4: *"A file in the SNAP format consists of one
edge per line, with vertices separated by whitespace and lines which
begin with # are comments."*  EPG* accepts any dataset in this format,
so this module is the ingestion point for arbitrary user graphs.

An optional third whitespace-separated column carries edge weights
(the convention the Graphalytics property-graph exports use).

Reading is vectorized through ``numpy`` string parsing rather than a
Python loop over lines; on multi-million-edge files this is the
difference between seconds and minutes.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList

__all__ = ["read_snap", "sniff_snap"]


def sniff_snap(path: str | Path, max_lines: int = 50) -> dict:
    """Peek at a SNAP file: comment header, weightedness, column count."""
    path = Path(path)
    comments: list[str] = []
    n_cols = 0
    with path.open("r", encoding="utf-8") as fh:
        for _ in range(max_lines):
            line = fh.readline()
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            n_cols = len(line.split())
            break
    if n_cols not in (0, 2, 3):
        raise GraphFormatError(
            f"{path}: expected 2 or 3 columns, found {n_cols}")
    return {"comments": comments, "n_cols": n_cols,
            "weighted": n_cols == 3}


def read_snap(path: str | Path, directed: bool = True,
              name: str | None = None) -> EdgeList:
    """Parse a SNAP-format file into an :class:`EdgeList`.

    Vertex ids may be arbitrary non-negative integers; they are compacted
    to ``[0, n)`` preserving numeric order (the same normalization the
    paper's homogenization step applies so every system sees identical
    ids).  The dataset is named ``name`` or the file stem, with each
    run of characters outside ``[A-Za-z0-9._+-]`` replaced by ``_``:
    the name is a field of every log header and every CSV row.
    """
    path = Path(path)
    name = re.sub(r"[^A-Za-z0-9._+-]+", "_", name or path.stem)
    sniff_snap(path)  # fail fast on a malformed header/column layout
    text = path.read_text(encoding="utf-8")
    # Strip comment lines, then bulk-parse.
    data_lines = [ln for ln in text.splitlines()
                  if ln.strip() and not ln.lstrip().startswith("#")]
    if not data_lines:
        return EdgeList(np.zeros(0, np.int64), np.zeros(0, np.int64), 0,
                        directed=directed, name=name)
    buf = io.StringIO("\n".join(data_lines))
    try:
        arr = np.loadtxt(buf, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: malformed edge line: {exc}") from exc
    if arr.shape[1] not in (2, 3):
        raise GraphFormatError(
            f"{path}: expected 2 or 3 columns, found {arr.shape[1]}")
    raw_src = arr[:, 0]
    raw_dst = arr[:, 1]
    if np.any(raw_src != np.floor(raw_src)) or np.any(raw_dst != np.floor(raw_dst)):
        raise GraphFormatError(f"{path}: vertex ids must be integers")
    raw_src = raw_src.astype(np.int64)
    raw_dst = raw_dst.astype(np.int64)
    if raw_src.size and min(raw_src.min(), raw_dst.min()) < 0:
        raise GraphFormatError(f"{path}: negative vertex id")
    weights = arr[:, 2].copy() if arr.shape[1] == 3 else None

    # Imported here: the frontier module loads scipy, which the CLI's
    # start-up path never needs.
    from repro.graph.frontier import sorted_unique
    ids = sorted_unique(np.concatenate([raw_src, raw_dst]))
    src = np.searchsorted(ids, raw_src)
    dst = np.searchsorted(ids, raw_dst)
    return EdgeList(src, dst, int(ids.size), weights=weights,
                    directed=directed, name=name)

