"""Pipeline phase 2: dataset homogenization.

"Homogenizing the datasets creates copies of the graph files and
auxiliary files in various formats.  This is both to ensure they are
correctly formatted for each system and to speed up file I/O whenever
possible by using the library designer's serialized data structure file
formats." (paper Sec. III-B)

Given one :class:`~repro.graph.edgelist.EdgeList` (synthetic or parsed
from a SNAP file), :func:`homogenize` writes a dataset directory:

.. code-block:: text

    <out>/<name>/
        manifest.json          dataset statistics + file inventory
        <name>.wel             GAP's weighted text edge list
        <name>.g500            Graph500 packed tuples
        <name>.mtxbin          GraphMat binary matrix
        <name>.tsv             PowerGraph edge TSV
        graphbig/              GraphBIG vertex.csv + edge.csv
        roots.txt              the 32 search roots (degree > 1)

Auxiliary rules from the paper:

* 32 roots per graph, each with degree greater than 1 (Graph500 rule);
* SSSP on unweighted datasets uses generated uniform weights (the
  Graph500 SSSP convention), so every file holds weighted edges.

Only files a system reads or prices are written, and the manifest's
``files`` lists them in write order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets import formats
from repro.errors import DatasetError, GraphFormatError
from repro.graph.edgelist import EdgeList

__all__ = ["HomogenizedDataset", "homogenize", "load_manifest",
           "select_roots"]

N_ROOTS_DEFAULT = 32


def select_roots(edges: EdgeList, n_roots: int = N_ROOTS_DEFAULT,
                 seed: int = 2):
    """Sample search roots the way the Graph500 does.

    "Each experiment uses 32 roots per graph.  As with the Graph500,
    each root is selected to have a degree greater than 1."  Sampling is
    uniform without replacement over eligible vertices; if fewer than
    ``n_roots`` vertices qualify, sampling falls back to with-replacement
    over whatever qualifies (tiny test graphs).
    """
    deg = edges.degrees()
    eligible = np.flatnonzero(deg > 1)
    if eligible.size == 0:
        raise DatasetError("no vertex has degree > 1; cannot choose roots")
    rng = np.random.default_rng(seed)
    replace = eligible.size < n_roots
    roots = rng.choice(eligible, size=n_roots, replace=replace)
    return roots.astype(np.int64)


@dataclass(frozen=True)
class HomogenizedDataset:
    """Handle to a homogenized dataset directory."""

    name: str
    directory: Path
    n_vertices: int
    n_edges: int
    directed: bool
    weighted: bool
    roots: np.ndarray
    files: dict

    def path(self, key: str) -> Path:
        """Absolute path of one homogenized artifact (e.g. ``'wel'``)."""
        try:
            return self.directory / self.files[key]
        except KeyError:
            raise DatasetError(
                f"{self.name}: no homogenized file {key!r}; "
                f"have {sorted(self.files)}") from None

    def load_edges(self) -> EdgeList:
        """The weighted edges every system runs on, read from the
        ``.g500`` dump: the ``.wel`` rows in their order, bit-exact, so
        no text is parsed.  A header that disagrees with the manifest is
        a :class:`~repro.errors.GraphFormatError`."""
        path = self.path("g500")
        el = formats.read_g500(path, name=self.name)
        if (el.n_vertices, el.n_edges) != (self.n_vertices, self.n_edges):
            raise GraphFormatError(
                f"{path}: header says n={el.n_vertices} m={el.n_edges}, "
                f"manifest n={self.n_vertices} m={self.n_edges}")
        el.directed = self.directed
        return el


def _restore_tree(tree: Path, ddir: Path, tracer,
                  name: str) -> HomogenizedDataset:
    """Copy a cached homogenized tree into ``ddir``.

    Replays the manifest's ``files`` in write order with a cold
    :func:`homogenize`'s ``write:<key>`` spans, so traces stay
    byte-transparent to caching.
    """
    import shutil

    manifest = json.loads((tree / "manifest.json").read_text(
        encoding="utf-8"))
    files = manifest["files"]
    ddir.mkdir(parents=True, exist_ok=True)

    def _copy(rel: str) -> None:
        src, dst = tree / rel, ddir / rel
        if src.is_dir():
            shutil.copytree(src, dst, dirs_exist_ok=True)
        else:
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)

    for key, rel in files.items():
        if tracer is not None and key != "roots":
            with tracer.span(f"write:{key}", category="dataset",
                             dataset=name):
                _copy(rel)
        else:
            _copy(rel)
    shutil.copy2(tree / "manifest.json", ddir / "manifest.json")
    return load_manifest(ddir)


def homogenize(edges: EdgeList, out_dir: str | Path,
               n_roots: int = N_ROOTS_DEFAULT,
               seed: int = 2, tracer=None,
               cache=None) -> HomogenizedDataset:
    """Write every per-system input file for ``edges`` under ``out_dir``.

    ``tracer`` (optional :class:`~repro.observability.tracer.Tracer`)
    records one ``dataset`` span per format written.

    ``cache`` is an optional :class:`repro.cache.ArtifactCache`; the
    finished tree is memoized under a digest of the edge list and the
    recipe (``n_roots``, ``seed``), and a hit restores the files by copy
    instead of re-serializing every format.
    """
    out_dir = Path(out_dir)
    name = edges.name
    ddir = out_dir / name

    ckey = None
    if cache is not None:
        from repro.cache.keys import homogenize_key

        ckey = homogenize_key(edges, n_roots, seed)
        entry = cache.get(ckey, kind="homogenize")
        if entry is not None:
            try:
                return _restore_tree(entry / "tree", ddir, tracer, name)
            except Exception as exc:  # noqa: BLE001 -- degrade to miss
                cache.discard(ckey, exc)

    ddir.mkdir(parents=True, exist_ok=True)

    weighted_el = edges if edges.weighted else edges.with_random_weights(
        seed=seed ^ 0x5355)

    files: dict[str, str] = {}

    def _rel(p: Path) -> str:
        return str(p.relative_to(ddir))

    # The two other text formats of weighted_el are its .wel re-delimited.
    wel_path = ddir / f"{name}.wel"
    writers = [
        ("wel", lambda: formats.write_el(weighted_el, wel_path)),
        ("g500", lambda: formats.write_g500(weighted_el,
                                            ddir / f"{name}.g500")),
        ("mtxbin", lambda: formats.write_graphmat_bin(
            weighted_el, ddir / f"{name}.mtxbin")),
        ("tsv", lambda: formats.write_powergraph_tsv(
            weighted_el, ddir / f"{name}.tsv", from_el=wel_path)),
        ("graphbig", lambda: formats.write_graphbig_csv(
            weighted_el, ddir / "graphbig", from_el=wel_path)),
    ]
    for key, write in writers:
        if tracer is not None:
            with tracer.span(f"write:{key}", category="dataset",
                             dataset=name):
                files[key] = _rel(write())
        else:
            files[key] = _rel(write())

    roots = select_roots(edges, n_roots=n_roots, seed=seed)
    roots_path = ddir / "roots.txt"
    np.savetxt(roots_path, roots, fmt="%d")
    files["roots"] = _rel(roots_path)

    manifest = {
        "name": name,
        "n_vertices": edges.n_vertices,
        "n_edges": edges.n_edges,
        "directed": edges.directed,
        "weighted": edges.weighted,
        "n_roots": int(roots.size),
        "files": files,
    }
    from repro.ioutil import atomic_write_json

    atomic_write_json(ddir / "manifest.json", manifest)

    if ckey is not None:
        import shutil

        cache.put(ckey, "homogenize",
                  lambda tmp: shutil.copytree(ddir, tmp / "tree"),
                  meta={"name": name})

    return HomogenizedDataset(
        name=name, directory=ddir, n_vertices=edges.n_vertices,
        n_edges=edges.n_edges, directed=edges.directed,
        weighted=edges.weighted, roots=roots, files=files,
    )


def load_manifest(directory: str | Path) -> HomogenizedDataset:
    """Reopen a previously homogenized dataset directory."""
    directory = Path(directory)
    mpath = directory / "manifest.json"
    if not mpath.exists():
        raise DatasetError(f"{directory}: no manifest.json (not homogenized?)")
    manifest = json.loads(mpath.read_text(encoding="utf-8"))
    roots = np.loadtxt(directory / manifest["files"]["roots"],
                       dtype=np.int64, ndmin=1)
    return HomogenizedDataset(
        name=manifest["name"], directory=directory,
        n_vertices=manifest["n_vertices"], n_edges=manifest["n_edges"],
        directed=manifest["directed"], weighted=manifest["weighted"],
        roots=roots, files=manifest["files"],
    )
