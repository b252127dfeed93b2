"""Adversarial graph structures through every system.

Degenerate shapes stress different code paths than the Kronecker
fixture: a star (one hub), a long chain (maximal diameter), two
disconnected cliques, self-loops, and duplicate edges.  Every system's
output must still match the reference kernels.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.algorithms import bfs_parents, pagerank, sssp_dijkstra
from repro.algorithms import weakly_connected_components
from repro.datasets.homogenize import homogenize
from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.validation import (
    validate_pagerank,
    validate_sssp_distances,
)
from repro.systems import create_system

BFS_SYSTEMS = ("gap", "graphbig", "graphmat")
SSSP_SYSTEMS = ("gap", "graphbig", "graphmat", "powergraph")


def _star(n=64):
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    w = np.linspace(0.1, 1.0, n - 1)
    return EdgeList(src, dst, n, weights=w, directed=False, name="star")


def _chain(n=200):
    src = np.arange(n - 1, dtype=np.int64)
    w = np.full(n - 1, 0.5)
    return EdgeList(src, src + 1, n, weights=w, directed=False,
                    name="chain")


def _two_cliques(k=12):
    src, dst = [], []
    for base in (0, k):
        for i in range(k):
            for j in range(i + 1, k):
                src.append(base + i)
                dst.append(base + j)
    m = len(src)
    return EdgeList(np.array(src), np.array(dst), 2 * k,
                    weights=np.linspace(0.2, 2.0, m), directed=False,
                    name="cliques")


def _messy(n=40, seed=5):
    """Self-loops and duplicate edges (the Graph500 contract allows
    both in its edge lists)."""
    rng = np.random.default_rng(seed)
    m = 160
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    # Force some loops and duplicates.
    src[:5] = dst[:5] = np.arange(5)
    src[5:10] = 7
    dst[5:10] = 9
    return EdgeList(src, dst, n, weights=rng.uniform(0.1, 1.0, m),
                    directed=False, name="messy")


GRAPHS = {"star": _star, "chain": _chain, "cliques": _two_cliques,
          "messy": _messy}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def adversarial(request, tmp_path_factory):
    edges = GRAPHS[request.param]()
    dataset = homogenize(edges, tmp_path_factory.mktemp(request.param),
                         n_roots=4)
    csr = CSRGraph.from_edge_list(edges, symmetrize=True)
    return request.param, dataset, csr


@pytest.mark.parametrize("system_name", BFS_SYSTEMS)
def test_bfs_on_adversarial(system_name, adversarial):
    name, dataset, csr = adversarial
    system = create_system(system_name)
    loaded = system.load(dataset)
    for root in dataset.roots[:2]:
        root = int(root)
        res = system.run(loaded, "bfs", root=root)
        assert np.array_equal(res.output["level"],
                              bfs_parents(csr, root)[1]), (system_name, name)


@pytest.mark.parametrize("system_name", SSSP_SYSTEMS)
def test_sssp_on_adversarial(system_name, adversarial):
    name, dataset, csr = adversarial
    system = create_system(system_name)
    loaded = system.load(dataset)
    root = int(dataset.roots[0])
    res = system.run(loaded, "sssp", root=root)
    validate_sssp_distances(res.output["dist"], sssp_dijkstra(csr, root),
                            rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("system_name", SSSP_SYSTEMS)
def test_pagerank_on_adversarial(system_name, adversarial):
    name, dataset, csr = adversarial
    system = create_system(system_name)
    loaded = system.load(dataset)
    res = system.run(loaded, "pagerank")
    validate_pagerank(res.output["rank"], pagerank(csr)[0], tol=5e-3)


def test_wcc_sees_two_cliques(tmp_path):
    edges = _two_cliques()
    dataset = homogenize(edges, tmp_path, n_roots=4)
    csr = CSRGraph.from_edge_list(edges, symmetrize=True)
    ref = weakly_connected_components(csr)
    assert len(np.unique(ref)) == 2
    for system_name in ("gap", "graphbig", "graphmat", "powergraph"):
        system = create_system(system_name)
        loaded = system.load(dataset)
        res = system.run(loaded, "wcc")
        assert np.array_equal(res.output["labels"], ref), system_name


def test_chain_depth_equals_distance(tmp_path):
    """A 200-vertex chain: BFS must go ~100 levels from mid-chain roots
    (maximal-depth frontier loop exercise)."""
    edges = _chain()
    dataset = homogenize(edges, tmp_path, n_roots=4)
    system = create_system("gap")
    loaded = system.load(dataset)
    res = system.run(loaded, "bfs", root=0)
    assert res.counters["depth"] >= 199


# ----------------------------------------------------------------------
# Weights no SSSP is defined for
# ----------------------------------------------------------------------
#: Runs every system's SSSP and the reference on the graph in argv[1]'s
#: dataset directory, printing the name of each that refused it.
_REFUSALS = textwrap.dedent("""
    import sys

    import numpy as np

    from repro.algorithms import sssp_dijkstra
    from repro.datasets.homogenize import homogenize
    from repro.errors import ValidationError
    from repro.graph.csr import CSRGraph
    from repro.graph.edgelist import EdgeList
    from repro.systems import create_system

    # 0 -> 1 -> 0 is a cycle of length 1 - 2 < 0: every lap lowers both
    # distances, so an unchecked label-correcting loop never ends.
    el = EdgeList(np.array([0, 1, 1]), np.array([1, 0, 2]), 3,
                  weights=np.array([1.0, -2.0, 0.5]), name="neg")
    dataset = homogenize(el, sys.argv[1], n_roots=2)
    for name in ("gap", "graphbig", "graphmat", "powergraph", "reference"):
        try:
            if name == "reference":
                sssp_dijkstra(CSRGraph.from_arrays(
                    el.src, el.dst, 3, weights=el.weights), 0)
            else:
                system = create_system(name)
                system.run(system.load(dataset), "sssp", root=0)
        except ValidationError as exc:
            assert "non-negative" in str(exc), exc
            print(name)
    """)


def test_negative_cycle_rejected_not_looped_on(tmp_path):
    # GAP, GraphBIG and GraphMat used to spin until killed and
    # PowerGraph ran to its 10 000-superstep cap; pytest-timeout is not
    # installed, hence the subprocess.
    done = subprocess.run(
        [sys.executable, "-c", _REFUSALS, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [*SSSP_SYSTEMS, "reference"]


@pytest.mark.parametrize("system_name", SSSP_SYSTEMS)
def test_nan_weight_rejected(system_name, tmp_path):
    """A NaN never compares, so every kernel used to drop its arc
    silently and answer as if it were missing."""
    el = EdgeList(np.array([0, 1, 0]), np.array([1, 2, 2]), 3,
                  weights=np.array([1.0, np.nan, 5.0]), name="nan")
    system = create_system(system_name)
    loaded = system.load(homogenize(el, tmp_path, n_roots=2))
    with pytest.raises(ValidationError, match="non-negative"):
        system.run(loaded, "sssp", root=0)
