"""Per-system native file formats.

The paper's phase 2 ("dataset homogenizer") converts one input graph
into every system's preferred on-disk format, both for correctness and
"to speed up file I/O whenever possible by using the library designer's
serialized data structure file formats" (Sec. III-B).  Each format here
mirrors the observable layout of the real system's format:

=============  ==================================================
GAP            ``.wel`` -- weighted text edge list
Graph500       ``.g500`` -- packed int64 edge tuples (generator dump)
GraphBIG       ``vertex.csv`` + ``edge.csv`` (IBM System G CSV)
GraphMat       ``.mtxbin`` -- binary 1-based (src, dst, weight) triples
PowerGraph     ``.tsv`` -- whitespace edge list (snap loader)
=============  ==================================================

Only the binary formats have readers.  A system's load is priced from
its own file's byte count, but what it builds from is the one lossless
binary copy of the edges, the ``.g500`` dump (see
:meth:`repro.datasets.homogenize.HomogenizedDataset.load_edges`), so no
text is parsed at run time.  Every reader checks the header against
the bytes: a short body or bytes after the last record is a
:class:`~repro.errors.GraphFormatError`.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList

__all__ = [
    "write_el",
    "write_g500", "read_g500",
    "write_graphbig_csv",
    "write_graphmat_bin", "read_graphmat_bin",
    "write_powergraph_tsv",
]

_G500_MAGIC = b"GRPH500E"
_GMAT_MAGIC = b"GMATBIN1"
#: ``(n_vertices, n_edges, weighted)``, after every binary format's magic.
_HEADER = struct.Struct("<qq?")
_GMAT_RECORD = np.dtype([("src", "<i4"), ("dst", "<i4"), ("val", "<f4")])


def _read_blocks(path: str | Path, magic: bytes, what: str, layout
                 ) -> tuple[int, bool, list[np.ndarray]]:
    """Read a binary file: ``magic``, the header, then the arrays
    ``layout(n, m, weighted)`` lists as ``(dtype, count)`` pairs.

    Returns ``(n, weighted, arrays)``.  The body's size is checked
    against the file's before anything is read, so a short body or a
    byte after the last record raises :class:`GraphFormatError`.
    """
    path = Path(path)
    with path.open("rb") as fh:
        if fh.read(len(magic)) != magic:
            raise GraphFormatError(f"{path}: not a {what}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise GraphFormatError(f"{path}: truncated {what} header")
        n, m, weighted = _HEADER.unpack(header)
        if n < 0 or m < 0:
            raise GraphFormatError(f"{path}: corrupt {what} header")
        blocks = layout(n, m, weighted)
        extra = (os.fstat(fh.fileno()).st_size - fh.tell()
                 - sum(np.dtype(dt).itemsize * k for dt, k in blocks))
        if extra < 0:
            raise GraphFormatError(f"{path}: truncated {what} body")
        if extra > 0:
            raise GraphFormatError(
                f"{path}: {extra} bytes after the last {what} record")
        return n, weighted, [np.fromfile(fh, dtype=dt, count=k)
                             for dt, k in blocks]


# ----------------------------------------------------------------------
# Plain text edge lists (.el / .wel) -- GAP's converter input format.
# ----------------------------------------------------------------------
#: Rows formatted per ``"".join``; a chunk's lists and string are the
#: writer's only temporaries.  Peak RSS of homogenizing a scale-12
#: Kronecker graph (65 536 rows): ``np.savetxt`` 44.1 MB, chunks of
#: 1 024 rows 44.5, 8 192 45.6, the whole file at once 51.4; write time
#: is flat from 1 024 to 8 192 rows and worse outside.
_ROW_CHUNK = 1024
_TRANSLATE_BLOCK = 1 << 20  # bytes re-delimited per read (``from_el``)


def _write_rows(fh, fmt: str, *columns: np.ndarray) -> None:
    """Append ``fmt % row`` + newline per row of the parallel
    ``columns`` to the binary ``fh``: ``np.savetxt``'s own expression,
    hence its bytes (pinned in ``test_format_goldens.py``; ``%d`` prints
    a Python int and the integral float64 savetxt passed it alike),
    without its per-row trip through a generic writer."""
    line = fmt + "\n"
    for lo in range(0, columns[0].size, _ROW_CHUNK):
        rows = zip(*(c[lo:lo + _ROW_CHUNK].tolist() for c in columns))
        fh.write("".join([line % row for row in rows]).encode("ascii"))


def write_edge_rows(fh, edges: EdgeList, sep: str,
                    from_el: str | Path | None = None) -> None:
    """Append ``src<sep>dst[<sep>weight]`` rows to the binary ``fh``.

    Every text writer formats through here on its own; a caller that
    already wrote these edges with :func:`write_el` (``homogenize``)
    names that file as ``from_el`` and its bytes are copied with the
    delimiter swapped (no ``%d`` / ``%.17g`` field contains a space).
    The four text files at dota size: ``np.savetxt`` 807 ms, each
    formatted here 158, TSV and ``edge.csv`` translated instead 77.
    """
    if from_el is not None:
        delimiter = sep.encode("ascii")
        with open(from_el, "rb") as src:
            while block := src.read(_TRANSLATE_BLOCK):
                fh.write(block.replace(b" ", delimiter))
        return
    columns = [edges.src, edges.dst]
    if edges.weighted:
        columns.append(edges.weights)
    _write_rows(fh, sep.join(("%d", "%d", "%.17g")[:len(columns)]),
                *columns)


def write_el(edges: EdgeList, path: str | Path) -> Path:
    """Write ``src dst [weight]`` per line; extension picks weighting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        write_edge_rows(fh, edges, " ")
    return path


# ----------------------------------------------------------------------
# Graph500 packed edge tuples (.g500).
# ----------------------------------------------------------------------
def write_g500(edges: EdgeList, path: str | Path) -> Path:
    """Packed int64 pairs (plus float64 weights), the generator dump the
    reference code can mmap straight into its edge-list kernel input."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(_G500_MAGIC)
        fh.write(_HEADER.pack(edges.n_vertices, edges.n_edges,
                              edges.weighted))
        pairs = np.empty(2 * edges.n_edges, dtype=np.int64)
        pairs[0::2] = edges.src
        pairs[1::2] = edges.dst
        fh.write(pairs.tobytes())
        if edges.weighted:
            fh.write(edges.weights.tobytes())
    return path


def read_g500(path: str | Path, name: str = "graph") -> EdgeList:
    """Load a ``.g500`` dump: the edges in their written order, with
    the header's vertex count (undirected, as the generator's)."""
    n, _, (pairs, *weights) = _read_blocks(
        path, _G500_MAGIC, "Graph500 edge dump",
        lambda n, m, weighted: [(np.int64, 2 * m)]
        + ([(np.float64, m)] if weighted else []))
    return EdgeList(pairs[0::2], pairs[1::2], n,
                    weights=weights[0] if weights else None,
                    directed=False, name=name)


# ----------------------------------------------------------------------
# GraphBIG (IBM System G) CSV pair: vertex.csv + edge.csv.
# ----------------------------------------------------------------------
def write_graphbig_csv(edges: EdgeList, directory: str | Path,
                       from_el: str | Path | None = None) -> Path:
    """GraphBIG datasets are directories holding vertex and edge CSVs
    (``edge.csv``'s rows formatted, or re-delimited from ``from_el``)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "vertex.csv").open("wb") as fh:
        fh.write(b"id\n")
        _write_rows(fh, "%d", np.arange(edges.n_vertices, dtype=np.int64))
    with (directory / "edge.csv").open("wb") as fh:
        fh.write(b"src,dst,weight\n" if edges.weighted else b"src,dst\n")
        write_edge_rows(fh, edges, ",", from_el)
    return directory


# ----------------------------------------------------------------------
# GraphMat binary matrix (.mtxbin): 1-based int32 endpoints + f32 weight.
# ----------------------------------------------------------------------
def write_graphmat_bin(edges: EdgeList, path: str | Path) -> Path:
    """GraphMat's binary edge format: (int32 src1, int32 dst1, f32 val)
    records, 1-based as in Matrix Market, preceded by a small header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    m = edges.n_edges
    rec = np.zeros(m, dtype=_GMAT_RECORD)
    rec["src"] = edges.src + 1
    rec["dst"] = edges.dst + 1
    rec["val"] = edges.weights if edges.weighted else 1.0
    with path.open("wb") as fh:
        fh.write(_GMAT_MAGIC)
        fh.write(_HEADER.pack(edges.n_vertices, m, edges.weighted))
        fh.write(rec.tobytes())
    return path


def read_graphmat_bin(path: str | Path, directed: bool = True,
                      name: str = "graph") -> EdgeList:
    n, weighted, (rec,) = _read_blocks(
        path, _GMAT_MAGIC, "GraphMat binary matrix",
        lambda n, m, weighted: [(_GMAT_RECORD, m)])
    src = rec["src"].astype(np.int64) - 1
    dst = rec["dst"].astype(np.int64) - 1
    weights = rec["val"].astype(np.float64) if weighted else None
    return EdgeList(src, dst, n, weights=weights, directed=directed,
                    name=name)


# ----------------------------------------------------------------------
# PowerGraph TSV (its snap/tsv loader).
# ----------------------------------------------------------------------
def write_powergraph_tsv(edges: EdgeList, path: str | Path,
                         from_el: str | Path | None = None) -> Path:
    """Tab-separated :func:`write_el`: formatted from ``edges``, or
    re-delimited from ``from_el`` when the caller already wrote one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        write_edge_rows(fh, edges, "\t", from_el)
    return path
