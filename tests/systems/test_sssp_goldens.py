"""Every system SSSP and the GraphBIG / GraphMat BFS, pinned before the
push/pull switch and before one BFS and one Bellman-Ford body served them.

The digests in ``sssp_goldens.json`` were pinned at commit fc6c008, the
last one whose dense relaxation rounds expanded every arc with
``np.repeat`` (GraphBIG, PowerGraph) or multiplied the whole matrix
(GraphMat), before those rounds moved to
:func:`repro.graph.frontier.relax_round`'s pull side.  Which side ran
must change wall-clock only, so each digest covers, over every root of
the dataset, the output bytes (``dist``, or GraphMat BFS's ``parent`` and
``level``), the iteration count, the ``WorkProfile`` arrays and
``serial_units``, the simulated ``time_s`` and the stats counters.

GraphBIG's BFS and the reference :func:`~repro.algorithms.bfs.bfs_parents`
were added at commit fef6672, the last one where GraphBIG and GraphMat
each typed their own BFS level loop and Bellman-Ford loop, before both
moved onto the bodies in :mod:`repro.algorithms`; the reference BFS is
pinned as its ``parent`` and ``level`` bytes over every root.

The PowerGraph cells ``RUNS`` leaves out -- the Graphalytics driver's
``bfs-hops`` program on both engines, and the async engine's SSSP and
WCC -- and its ingest (the load's ``read_s``, which prices ``m +
mirrors``, and the replication factor a run reports, at several
partition counts) were added at commit 8765a1f, the last one with
PowerGraph's own partitioner module, vertex-cut arrays and
``VertexProgram`` objects.

GAP's delta-stepping at two more bucket widths, and at the default one
on two shards, were added at commit 703aad4, the last one whose
relaxation rounds gathered every out-arc of a bucket and dropped the
light or heavy ones through a per-arc mask.

Beside the two generated datasets (undirected ``kron10``, directed
``patents_small``) sit two hand-built multigraphs for the corners a
generated graph may not reach: parallel arcs of different weights, a
self-loop, an isolated vertex, and -- in the directed one -- pairs whose
in- and out-arcs differ, so reading one structure for both directions
would be wrong there.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.bfs import bfs_parents
from repro.datasets.homogenize import homogenize
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
import repro.shard.engine as engine_mod
from repro.systems import create_system

#: 9 vertices, directed: parallel 0->1 at 0.7 and 0.2, self-loop 3->3,
#: isolated 8, 2->4 without 4->2, 5 <-> 6 at different weights, a zero
#: weight 6->7, and 7 reachable from 0 only the long way round.
DIRECTED9 = ([0, 0, 0, 1, 1, 2, 3, 3, 4, 5, 6, 6, 7, 2],
             [1, 1, 2, 2, 3, 4, 3, 5, 5, 6, 5, 7, 0, 6],
             [0.7, 0.2, 0.9, 0.3, 0.8, 0.4, 0.1, 0.6, 0.5, 0.25, 0.75,
              0.0, 0.35, 1.0])
#: 7 vertices, undirected: parallel 0-1 at 0.5 and 0.125, self-loop
#: 2-2, isolated 6, a triangle 3-4-5 and a bridge 1-3.
UNDIRECTED7 = ([0, 0, 1, 2, 1, 3, 4, 5, 2],
               [1, 1, 2, 2, 3, 4, 5, 3, 0],
               [0.5, 0.125, 0.25, 0.75, 1.0, 0.375, 0.625, 0.875, 0.9])

#: (system, algorithm) pairs the goldens cover.
RUNS = [("gap", "sssp"), ("graphbig", "sssp"), ("graphmat", "sssp"),
        ("powergraph", "sssp"), ("graphmat", "bfs"), ("graphbig", "bfs")]

GOLDENS = json.loads((Path(__file__).parent / "sssp_goldens.json")
                     .read_text())


@pytest.fixture(scope="module")
def datasets(kron10_dataset, patents_dataset, tmp_path_factory):
    out = {"kron10": (kron10_dataset, kron10_dataset.roots),
           "patents_small": (patents_dataset, patents_dataset.roots)}
    for name, n, directed, (src, dst, w) in (
            ("directed9", 9, True, DIRECTED9),
            ("undirected7", 7, False, UNDIRECTED7)):
        el = EdgeList(np.array(src), np.array(dst), n, weights=np.array(w),
                      directed=directed, name=name)
        # Every vertex is a root, the isolated one included.
        out[name] = (homogenize(el, tmp_path_factory.mktemp(name)),
                     np.arange(n))
    return out


def _hash_result(h, res) -> None:
    """Feed one run's outputs, profile, time and stats to ``h``."""
    for key in sorted(res.output):
        h.update(key.encode())
        h.update(np.ascontiguousarray(res.output[key]).tobytes())
    h.update(repr(res.iterations).encode())
    for _, a in sorted(res.profile.to_arrays().items()):
        h.update(a.tobytes())
    h.update(repr(res.profile.serial_units).encode())
    h.update(repr(res.time_s).encode())
    h.update(repr(sorted(res.counters.items())).encode())


def run_digest(system: str, algorithm: str, dataset, roots,
               options=None, params=None) -> str:
    """sha256 over every root's outputs, profile, time and stats;
    ``options`` go to the system, ``params`` to each run."""
    s = create_system(system, **(options or {}))
    loaded = s.load(dataset)
    h = hashlib.sha256()
    for root in roots:
        _hash_result(h, s.run(loaded, algorithm, root=int(root),
                              **(params or {})))
    loaded.close()
    return h.hexdigest()


@pytest.mark.parametrize("system,algorithm", RUNS,
                         ids=[f"{s}-{a}" for s, a in RUNS])
@pytest.mark.parametrize(
    "graph", ["kron10", "patents_small", "directed9", "undirected7"])
def test_run_pinned(graph, system, algorithm, datasets):
    dataset, roots = datasets[graph]
    assert run_digest(system, algorithm, dataset, roots) == \
        GOLDENS[f"{graph}/{system}/{algorithm}"]


#: GAP SSSP cells beyond ``RUNS``: ``(system options, run params)``.
GAP_SSSP_RUNS = {
    "delta0.05": ({}, {"delta": 0.05}),
    "delta1.0": ({}, {"delta": 1.0}),
    # Named for the partition it ran under when the engine had three;
    # the digests are the ones pinned then.
    "shards2-edge_blocks": ({"shards": 2}, {}),
}


@pytest.mark.parametrize("cell", sorted(GAP_SSSP_RUNS))
@pytest.mark.parametrize(
    "graph", ["kron10", "patents_small", "directed9", "undirected7"])
def test_gap_sssp_pinned(graph, cell, datasets, monkeypatch):
    # Every round crosses to the shards: left to itself the engine
    # would serve graphs this small in the parent.
    monkeypatch.setattr(engine_mod, "_INLINE_ARCS", 0)
    dataset, roots = datasets[graph]
    options, params = GAP_SSSP_RUNS[cell]
    assert run_digest("gap", "sssp", dataset, roots, options, params) == \
        GOLDENS[f"{graph}/gap-{cell}/sssp"]


#: (engine, program) PowerGraph cells beyond ``RUNS``.
POWERGRAPH_RUNS = [("sync", "bfs-hops"), ("async", "bfs-hops"),
                   ("async", "sssp"), ("async", "wcc")]
#: Partition counts whose ingest is pinned; ``None`` is the default.
PARTITIONS = (None, 2, 4, 8, 16, 32, 64)


def powergraph_digest(engine: str, program: str, dataset, roots) -> str:
    """:func:`run_digest` for one PowerGraph engine; ``bfs-hops`` goes
    through the Graphalytics driver's entry point, WCC runs once."""
    s = create_system("powergraph", engine=engine)
    loaded = s.load(dataset)
    h = hashlib.sha256()
    if program == "wcc":
        _hash_result(h, s.run(loaded, "wcc"))
        return h.hexdigest()
    run = s.run_toolkit_extension if program == "bfs-hops" else s.run
    for root in roots:
        _hash_result(h, run(loaded, program, root=int(root)))
    return h.hexdigest()


@pytest.mark.parametrize("engine,program", POWERGRAPH_RUNS,
                         ids=[f"{e}-{p}" for e, p in POWERGRAPH_RUNS])
@pytest.mark.parametrize(
    "graph", ["kron10", "patents_small", "directed9", "undirected7"])
def test_powergraph_run_pinned(graph, engine, program, datasets):
    dataset, roots = datasets[graph]
    assert powergraph_digest(engine, program, dataset, roots) == \
        GOLDENS[f"{graph}/powergraph-{engine}/{program}"]


def powergraph_ingest_digest(dataset) -> str:
    """sha256 over, per partition count, the load's ``read_s`` and the
    replication factor a WCC run reports."""
    h = hashlib.sha256()
    for parts in PARTITIONS:
        s = create_system("powergraph", n_partitions=parts)
        loaded = s.load(dataset)
        rep = s.run(loaded, "wcc").counters["replication_factor"]
        h.update(repr((parts, loaded.read_s, rep)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "graph", ["kron10", "patents_small", "directed9", "undirected7"])
def test_powergraph_ingest_pinned(graph, datasets):
    assert powergraph_ingest_digest(datasets[graph][0]) == \
        GOLDENS[f"{graph}/powergraph/ingest"]


def reference_bfs_digest(dataset, roots) -> str:
    """sha256 over the reference BFS's ``parent`` and ``level`` bytes."""
    csr = CSRGraph.from_edge_list(dataset.load_edges(),
                                  symmetrize=not dataset.directed)
    h = hashlib.sha256()
    for root in roots:
        for a in bfs_parents(csr, int(root)):
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "graph", ["kron10", "patents_small", "directed9", "undirected7"])
def test_reference_bfs_pinned(graph, datasets):
    dataset, roots = datasets[graph]
    assert reference_bfs_digest(dataset, roots) == \
        GOLDENS[f"{graph}/reference/bfs"]


def test_multigraphs_reach_the_system_intact(datasets):
    """The parallel arcs and the self-loop survive homogenization, so
    the goldens above really run over them."""
    s = create_system("graphbig")
    d9 = s.load(datasets["directed9"][0])
    u7 = s.load(datasets["undirected7"][0])
    assert d9.n_arcs == len(DIRECTED9[0])
    # Symmetrized: every arc twice but the self-loop.
    assert u7.n_arcs == 2 * len(UNDIRECTED7[0]) - 1
