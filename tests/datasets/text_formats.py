"""Readers for the text formats homogenize writes: round-trip oracles.

No system parses text at run time -- GAP, GraphBIG and PowerGraph build
from the binary ``.g500`` dump (``HomogenizedDataset.load_edges``) and
only price their native text file by its size -- so these readers live
here, where the tests use them to check that every text file holds the
rows the dump holds.
"""

from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList


def read_el(path, n_vertices=None, directed=True, name="graph",
            delimiter=None, skiprows=0):
    """``src dst [weight]`` rows (``.el`` / ``.wel`` / ``.tsv``)."""
    arr = np.loadtxt(path, dtype=np.float64, ndmin=2, delimiter=delimiter,
                     skiprows=skiprows)
    if arr.size == 0:
        return EdgeList(np.zeros(0, np.int64), np.zeros(0, np.int64),
                        n_vertices or 0, directed=directed, name=name)
    src = arr[:, 0].astype(np.int64)
    dst = arr[:, 1].astype(np.int64)
    weights = arr[:, 2].copy() if arr.shape[1] >= 3 else None
    n = n_vertices if n_vertices is not None else int(
        max(src.max(), dst.max())) + 1
    return EdgeList(src, dst, n, weights=weights, directed=directed,
                    name=name)


def read_powergraph_tsv(path, n_vertices=None, directed=True,
                        name="graph"):
    return read_el(path, n_vertices=n_vertices, directed=directed,
                   name=name)


def read_graphbig_csv(directory, directed=True, name="graph"):
    """GraphBIG's ``vertex.csv`` + ``edge.csv`` pair."""
    directory = Path(directory)
    vpath = directory / "vertex.csv"
    epath = directory / "edge.csv"
    if not vpath.exists() or not epath.exists():
        raise GraphFormatError(f"{directory}: missing GraphBIG CSV pair")
    with vpath.open("rb") as fh:
        n = sum(1 for _ in fh) - 1
    return read_el(epath, n_vertices=n, directed=directed, name=name,
                   delimiter=",", skiprows=1)
