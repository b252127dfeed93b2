"""Cross-system differential tests: the five systems against *each
other*, not just against the reference oracles.

The paper's comparison is only meaningful if every system is solving
the same problem: identical BFS depth arrays, SSSP distances within
float tolerance, PageRank within 1e-4.  Any pairwise disagreement
means at least one implementation is wrong even if it happens to pass
its own oracle check.  The Graph500-spec parent-tree validator is
applied to every system that emits a parent array (PowerGraph's
Graphalytics driver computes hop counts only -- the paper's
PowerGraph-has-no-BFS hole).
"""

import numpy as np
import pytest

from repro.graph.validation import validate_bfs_parents
from repro.systems import create_system

ALL_FIVE = ("gap", "graph500", "graphbig", "graphmat", "powergraph")

#: Systems whose BFS emits a Graph500-style parent tree.
PARENT_TREE_SYSTEMS = ("gap", "graph500", "graphbig", "graphmat")

#: SSSP / PageRank providers (the Graph500 defines only BFS).
SSSP_SYSTEMS = ("gap", "graphbig", "graphmat", "powergraph")
PR_SYSTEMS = ("gap", "graphbig", "graphmat", "powergraph")

TOL = 1e-4


@pytest.fixture(scope="module")
def kron_systems(kron10_dataset):
    out = {}
    for name in ALL_FIVE:
        s = create_system(name, n_threads=32)
        out[name] = (s, s.load(kron10_dataset))
    return out


@pytest.fixture(scope="module")
def kron_roots(kron10_dataset):
    return [int(r) for r in kron10_dataset.roots[:2]]


def _bfs_levels(systems, root):
    """Every system's depth array, via its own BFS entry point."""
    levels = {}
    for name, (system, loaded) in systems.items():
        if name == "powergraph":
            res = system.run_toolkit_extension(loaded, "bfs-hops",
                                               root=root)
        else:
            res = system.run(loaded, "bfs", root=root)
        levels[name] = res.output["level"]
    return levels


def _pairs(names):
    names = list(names)
    return [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]


# ----------------------------------------------------------------------
# BFS: depth arrays identical across all five systems
# ----------------------------------------------------------------------
def test_bfs_depths_agree_all_five(kron_systems, kron_roots):
    for root in kron_roots:
        levels = _bfs_levels(kron_systems, root)
        for a, b in _pairs(ALL_FIVE):
            assert np.array_equal(levels[a], levels[b]), \
                f"BFS depth arrays differ: {a} vs {b} (root {root})"


@pytest.mark.parametrize("name", PARENT_TREE_SYSTEMS)
def test_graph500_parent_validator_every_system(name, kron_systems,
                                                kron_roots, kron10_csr):
    """The Graph500 spec's five parent-tree checks, per system."""
    system, loaded = kron_systems[name]
    for root in kron_roots:
        res = system.run(loaded, "bfs", root=root)
        validate_bfs_parents(kron10_csr, root, res.output["parent"])


# ----------------------------------------------------------------------
# SSSP: distances within tolerance, identical reachability
# ----------------------------------------------------------------------
def test_sssp_distances_agree(kron_systems, kron_roots):
    for root in kron_roots:
        dists = {}
        for name in SSSP_SYSTEMS:
            system, loaded = kron_systems[name]
            dists[name] = system.run(loaded, "sssp",
                                     root=root).output["dist"]
        for a, b in _pairs(SSSP_SYSTEMS):
            da, db = dists[a], dists[b]
            reach_a, reach_b = np.isfinite(da), np.isfinite(db)
            assert np.array_equal(reach_a, reach_b), \
                f"SSSP reachability differs: {a} vs {b} (root {root})"
            diff = np.abs(da[reach_a] - db[reach_a])
            assert diff.size == 0 or diff.max() < TOL, \
                (f"SSSP distances differ: {a} vs {b} (root {root}), "
                 f"max |d| = {diff.max():.3g}")


# ----------------------------------------------------------------------
# PageRank: values within 1e-4 pairwise
# ----------------------------------------------------------------------
def test_pagerank_agrees(kron_systems):
    ranks = {}
    for name in PR_SYSTEMS:
        system, loaded = kron_systems[name]
        ranks[name] = system.run(loaded, "pagerank").output["rank"]
    for a, b in _pairs(PR_SYSTEMS):
        diff = np.abs(ranks[a] - ranks[b]).max()
        assert diff < TOL, \
            f"PageRank differs: {a} vs {b}, max |d| = {diff:.3g}"


# ----------------------------------------------------------------------
# Isolated / sink roots: a root with no outgoing edges must terminate
# with itself as the only reachable vertex (parent[root] == root,
# dist[root] == 0) in every system -- including a vertex id past the
# last nonempty CSR row.
# ----------------------------------------------------------------------
ISOLATED_ROOT = 7  # max vertex id, zero edges: CSR row past the last


@pytest.fixture(scope="module")
def isolated_dataset(tmp_path_factory):
    """Undirected 8-vertex graph whose max-id vertex 7 is isolated.

    Named ``kron-...`` so the Graph500 wrapper accepts it too.
    """
    from repro.datasets.homogenize import homogenize
    from repro.graph.edgelist import EdgeList

    src = np.array([0, 0, 1, 2, 3, 4])
    dst = np.array([1, 2, 3, 4, 5, 6])
    w = np.linspace(0.2, 1.0, 6)
    edges = EdgeList(src, dst, 8, weights=w, directed=False,
                     name="kron-isolated")
    return homogenize(edges, tmp_path_factory.mktemp("isolated"),
                      n_roots=4)


def test_bfs_from_isolated_root_all_five(isolated_dataset):
    for name in ALL_FIVE:
        system = create_system(name, n_threads=32)
        loaded = system.load(isolated_dataset)
        if name == "powergraph":
            res = system.run_toolkit_extension(loaded, "bfs-hops",
                                               root=ISOLATED_ROOT)
        else:
            res = system.run(loaded, "bfs", root=ISOLATED_ROOT)
        level = res.output["level"]
        assert level[ISOLATED_ROOT] == 0, \
            f"{name}: isolated root must be its own depth-0 tree"
        others = np.delete(level, ISOLATED_ROOT)
        assert (others == -1).all(), \
            f"{name}: isolated root reached other vertices"
        if name in PARENT_TREE_SYSTEMS:
            parent = res.output["parent"]
            assert parent[ISOLATED_ROOT] == ISOLATED_ROOT, \
                f"{name}: parent[root] must be root"
            assert (np.delete(parent, ISOLATED_ROOT) == -1).all()


def test_sssp_from_isolated_root(isolated_dataset):
    for name in SSSP_SYSTEMS:
        system = create_system(name, n_threads=32)
        loaded = system.load(isolated_dataset)
        dist = system.run(loaded, "sssp",
                          root=ISOLATED_ROOT).output["dist"]
        assert dist[ISOLATED_ROOT] == 0.0, f"{name}: dist[root] != 0"
        assert not np.isfinite(np.delete(dist, ISOLATED_ROOT)).any(), \
            f"{name}: isolated root reached other vertices"


def test_bfs_sssp_from_directed_sink_root(tmp_path_factory):
    """Directed variant: a root with in-edges but zero out-edges (plus
    an isolated max-id vertex) reaches only itself in the four systems
    that load directed graphs."""
    from repro.datasets.homogenize import homogenize
    from repro.graph.edgelist import EdgeList

    # 3 is a sink (in-edges only); 5 is isolated with the max id.
    src = np.array([0, 0, 1, 2, 4])
    dst = np.array([1, 2, 3, 3, 0])
    edges = EdgeList(src, dst, 6,
                     weights=np.array([1.0, 2.0, 1.0, 2.0, 1.0]),
                     directed=True, name="sink")
    ds = homogenize(edges, tmp_path_factory.mktemp("sink"), n_roots=4)
    for root in (3, 5):
        for name in ("gap", "graphbig", "graphmat", "powergraph"):
            system = create_system(name, n_threads=32)
            loaded = system.load(ds)
            if name == "powergraph":
                res = system.run_toolkit_extension(loaded, "bfs-hops",
                                                   root=root)
            else:
                res = system.run(loaded, "bfs", root=root)
            level = res.output["level"]
            assert level[root] == 0, f"{name}: level[{root}] != 0"
            assert (np.delete(level, root) == -1).all(), \
                f"{name}: sink root {root} reached other vertices"
            dist = system.run(loaded, "sssp", root=root).output["dist"]
            assert dist[root] == 0.0
            assert not np.isfinite(np.delete(dist, root)).any(), \
                f"{name}: sink root {root} has finite distances"


# ----------------------------------------------------------------------
# Real-world fixture graphs: the same agreements hold off-Kronecker
# (the Graph500 only loads its own generator's graphs, so four systems)
# ----------------------------------------------------------------------
def test_bfs_depths_agree_on_directed_patents(patents_dataset,
                                              patents_small):
    from repro.graph.csr import CSRGraph

    csr = CSRGraph.from_edge_list(patents_small)
    root = int(patents_dataset.roots[0])
    levels = {}
    for name in ("gap", "graphbig", "graphmat", "powergraph"):
        s = create_system(name)
        loaded = s.load(patents_dataset)
        if name == "powergraph":
            res = s.run_toolkit_extension(loaded, "bfs-hops", root=root)
        else:
            res = s.run(loaded, "bfs", root=root)
            validate_bfs_parents(csr, root, res.output["parent"],
                                 directed=True)
        levels[name] = res.output["level"]
    for a, b in _pairs(levels):
        assert np.array_equal(levels[a], levels[b]), \
            f"cit-Patents BFS depths differ: {a} vs {b}"


# ----------------------------------------------------------------------
# Structural kernels: k-core / MIS / CC.  All three are defined on the
# simple undirected view and have mathematically unique answers (core
# numbers; greedy-by-priority MIS under the shared seeded priorities;
# min-member component labels), so every comparison is exact integer
# equality -- against an oracle that shares no code with the systems'
# one body per algorithm, pairwise across systems, and across repeated
# runs (bit-identity).
# ----------------------------------------------------------------------
KCORE_SYSTEMS = ("gap", "graphbig", "graphmat", "powergraph")
MIS_SYSTEMS = ("gap", "graphbig", "graphmat", "powergraph")
CC_SYSTEMS = ("gap", "graphbig")


def _oracles(csr):
    """``algorithm -> (output key, expected)`` from oracles that share
    no code with the one body each structural algorithm has in
    :mod:`repro.algorithms`: the full-rescan peel, the sequential greedy
    MIS and scipy's union-find components."""
    from repro.algorithms.kcore import core_numbers_naive
    from repro.algorithms.mis import mis_priorities
    from repro.algorithms.wcc import weakly_connected_components
    from repro.graph.simple import simple_undirected_view
    from tests.algorithms.oracles import oracle_greedy

    view = simple_undirected_view(csr.source_ids(), csr.col_idx,
                                  csr.n_vertices)
    mis = oracle_greedy(view, mis_priorities(view.n_vertices))
    return {"kcore": ("core", core_numbers_naive(csr)),
            "mis": ("in_set", mis.astype(np.int64)),
            "cc": ("labels", weakly_connected_components(csr))}


def _structural_outputs(systems, names, algorithm, key):
    """Each system's output array, run twice to pin bit-identity."""
    outs = {}
    for name in names:
        system, loaded = systems[name]
        first = system.run(loaded, algorithm).output[key]
        second = system.run(loaded, algorithm).output[key]
        assert np.array_equal(first, second), \
            f"{name}: {algorithm} not bit-identical across runs"
        assert first.dtype == np.int64, \
            f"{name}: {algorithm} must emit int64 {key}"
        outs[name] = first
    return outs


def test_kcore_agrees_with_oracle_and_pairwise(kron_systems, kron10_csr):
    _, want = _oracles(kron10_csr)["kcore"]
    cores = _structural_outputs(kron_systems, KCORE_SYSTEMS, "kcore",
                                "core")
    for name, got in cores.items():
        assert np.array_equal(got, want), f"{name}: core numbers differ"
    for a, b in _pairs(KCORE_SYSTEMS):
        assert np.array_equal(cores[a], cores[b]), \
            f"k-core differs: {a} vs {b}"


def test_mis_agrees_with_oracle_and_pairwise(kron_systems, kron10_csr):
    _, want = _oracles(kron10_csr)["mis"]
    sets = _structural_outputs(kron_systems, MIS_SYSTEMS, "mis", "in_set")
    for name, got in sets.items():
        assert np.array_equal(got, want), f"{name}: MIS differs"
    for a, b in _pairs(MIS_SYSTEMS):
        assert np.array_equal(sets[a], sets[b]), \
            f"MIS differs: {a} vs {b}"


def test_cc_agrees_with_oracle_and_wcc(kron_systems, kron10_csr):
    """Afforest labels equal the hash-min WCC labels exactly: both are
    canonical min-member labelings of the same components."""
    _, want = _oracles(kron10_csr)["cc"]
    labels = _structural_outputs(kron_systems, CC_SYSTEMS, "cc", "labels")
    for name, got in labels.items():
        assert np.array_equal(got, want), f"{name}: CC labels differ"
    gap_system, gap_loaded = kron_systems["gap"]
    wcc = gap_system.run(gap_loaded, "wcc").output["labels"]
    assert np.array_equal(labels["gap"], wcc), \
        "afforest CC and Shiloach-Vishkin WCC labels diverge"


STRUCTURAL_MATRIX = [("kcore", KCORE_SYSTEMS), ("mis", MIS_SYSTEMS),
                     ("cc", CC_SYSTEMS)]


def test_structural_kernels_on_isolated_vertex(isolated_dataset):
    """Disconnected graph with an isolated max-id vertex: vertex 7 must
    come back core 0, an MIS member, and its own component."""
    from repro.graph.csr import CSRGraph

    src = np.array([0, 0, 1, 2, 3, 4])
    dst = np.array([1, 2, 3, 4, 5, 6])
    refs = _oracles(CSRGraph.from_arrays(src, dst, 8))
    assert refs["kcore"][1][ISOLATED_ROOT] == 0
    assert refs["mis"][1][ISOLATED_ROOT] == 1
    assert refs["cc"][1][ISOLATED_ROOT] == ISOLATED_ROOT

    for algorithm, names in STRUCTURAL_MATRIX:
        key, want = refs[algorithm]
        for name in names:
            system = create_system(name, n_threads=32)
            loaded = system.load(isolated_dataset)
            got = system.run(loaded, algorithm).output[key]
            assert np.array_equal(got, want), \
                f"{name}: {algorithm} differs on the isolated-vertex graph"


def test_structural_kernels_on_directed_graph(tmp_path_factory):
    """Directed input: all three kernels are defined on the simple
    undirected view, so edge direction must not change any answer."""
    from repro.datasets.homogenize import homogenize
    from repro.graph.csr import CSRGraph
    from repro.graph.edgelist import EdgeList

    # 3 is a sink (in-edges only); 5 is isolated with the max id.
    src = np.array([0, 0, 1, 2, 4])
    dst = np.array([1, 2, 3, 3, 0])
    edges = EdgeList(src, dst, 6,
                     weights=np.array([1.0, 2.0, 1.0, 2.0, 1.0]),
                     directed=True, name="sink-structural")
    ds = homogenize(edges, tmp_path_factory.mktemp("sink_structural"),
                    n_roots=4)
    refs = _oracles(CSRGraph.from_arrays(src, dst, 6))
    for algorithm, names in STRUCTURAL_MATRIX:
        key, want = refs[algorithm]
        for name in names:
            system = create_system(name, n_threads=32)
            loaded = system.load(ds)
            got = system.run(loaded, algorithm).output[key]
            assert np.array_equal(got, want), \
                f"{name}: {algorithm} differs on the directed sink graph"


def test_sssp_and_pagerank_agree_on_weighted_dota(dota_dataset):
    root = int(dota_dataset.roots[0])
    dists, ranks = {}, {}
    for name in SSSP_SYSTEMS:
        s = create_system(name)
        loaded = s.load(dota_dataset)
        dists[name] = s.run(loaded, "sssp", root=root).output["dist"]
        ranks[name] = s.run(loaded, "pagerank").output["rank"]
    for a, b in _pairs(SSSP_SYSTEMS):
        reach = np.isfinite(dists[a])
        assert np.array_equal(reach, np.isfinite(dists[b]))
        diff = np.abs(dists[a][reach] - dists[b][reach])
        assert diff.size == 0 or diff.max() < TOL, \
            f"dota SSSP differs: {a} vs {b}"
        pd = np.abs(ranks[a] - ranks[b]).max()
        assert pd < TOL, f"dota PageRank differs: {a} vs {b}"
