"""Cache keys: content digests of the things that determine an artifact.

Every key is the BLAKE2b digest (the same primitive
:func:`repro.core.provenance.digest_file` uses) of a canonical-JSON
description of *everything* that affects the artifact's bytes -- spec
fields, source-data digests, recipe parameters, and a schema version
bumped whenever the stored layout changes.  Two configurations that
would produce identical bytes share an entry; anything that could
change a byte changes the key.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

__all__ = ["CACHE_SCHEMA_VERSION", "digest_json", "edgelist_digest",
           "kronecker_key", "homogenize_key", "input_digest",
           "loaded_graph_key"]

#: Bump whenever the on-disk layout of any cached artifact changes;
#: part of every key, so stale-format entries simply stop matching.
CACHE_SCHEMA_VERSION = 7


def _hasher():
    return hashlib.blake2b(digest_size=16)


def digest_json(obj) -> str:
    """Digest of the canonical JSON rendering of ``obj``."""
    h = _hasher()
    h.update(json.dumps(obj, sort_keys=True, separators=(",", ":"),
                        default=str).encode("utf-8"))
    return h.hexdigest()


def edgelist_digest(edges) -> str:
    """Digest of an :class:`~repro.graph.edgelist.EdgeList`'s full
    content: shape metadata plus the raw src/dst/weight bytes."""
    h = _hasher()
    h.update(json.dumps({
        "n": int(edges.n_vertices), "m": int(edges.n_edges),
        "directed": bool(edges.directed), "name": edges.name,
        "weighted": edges.weights is not None,
    }, sort_keys=True).encode("utf-8"))
    h.update(np.ascontiguousarray(edges.src).tobytes())
    h.update(np.ascontiguousarray(edges.dst).tobytes())
    if edges.weights is not None:
        h.update(np.ascontiguousarray(edges.weights).tobytes())
    return h.hexdigest()


def kronecker_key(spec) -> str:
    """Key for a generated Kronecker edge list: the full spec."""
    return digest_json({
        "kind": "kronecker", "v": CACHE_SCHEMA_VERSION,
        "scale": spec.scale, "edge_factor": spec.edge_factor,
        "a": spec.a, "b": spec.b, "c": spec.c,
        "seed": spec.seed, "weighted": spec.weighted,
    })


def homogenize_key(edges, n_roots: int, seed: int) -> str:
    """Key for a homogenized dataset tree: source bytes + recipe."""
    return digest_json({
        "kind": "homogenize", "v": CACHE_SCHEMA_VERSION,
        "edges": edgelist_digest(edges),
        "n_roots": int(n_roots), "seed": int(seed),
    })


def input_digest(path: Path) -> str:
    """Digest of one homogenized input file (or file directory)."""
    from repro.core.provenance import digest_file

    path = Path(path)
    if path.is_dir():
        return digest_json({f.name: digest_file(f)
                            for f in sorted(path.iterdir()) if f.is_file()})
    return digest_file(path)


def loaded_graph_key(system, dataset) -> str:
    """Key for one system's built graph structure.

    Covers the bytes of the priced input file (``input_key``) and of
    the file the build reads (``read_key``), the dataset's shape
    metadata, the system name, and the system's build-affecting knobs
    (:meth:`GraphSystem._cache_token` -- e.g. PowerGraph's partition
    count, GAP's weight dtype).  Thread count is deliberately absent:
    the built arrays are thread-invariant, only their *pricing* depends
    on ``n_threads``, and pricing is re-simulated on every hit.
    """
    return digest_json({
        "kind": "graph", "v": CACHE_SCHEMA_VERSION,
        "system": system.name,
        "inputs": {key: input_digest(dataset.path(key))
                   for key in {system.input_key, system.read_key}},
        "dataset": {"name": dataset.name,
                    "n_vertices": int(dataset.n_vertices),
                    "directed": bool(dataset.directed),
                    "weighted": bool(dataset.weighted)},
        "token": system._cache_token(),
    })
