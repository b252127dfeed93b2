"""Cross-validation: every system's output against the reference
kernels, on synthetic and real-world datasets.

This is the test-suite counterpart of the Graph500 validation step: a
system may be arbitrarily structured inside, but its answers must agree
with the oracles.
"""

import numpy as np
import pytest

from repro.algorithms import (
    bfs_parents,
    cdlp,
    pagerank,
    sssp_dijkstra,
    weakly_connected_components,
)
from repro.graph.csr import CSRGraph
from repro.graph.validation import (
    validate_bfs_parents,
    validate_pagerank,
    validate_sssp_distances,
)
from repro.systems import create_system
from repro.systems.registry import ALL_SYSTEM_NAMES
from tests.algorithms.oracles import networkx_clustering

BFS_SYSTEMS = ("gap", "graph500", "graphbig", "graphmat")
SSSP_SYSTEMS = ("gap", "graphbig", "graphmat", "powergraph")
PR_SYSTEMS = ("gap", "graphbig", "graphmat", "powergraph")
WCC_SYSTEMS = ("gap", "graphbig", "graphmat", "powergraph")
CDLP_SYSTEMS = ("graphbig", "graphmat", "powergraph")
LCC_SYSTEMS = ("graphbig", "graphmat", "powergraph")


@pytest.fixture(scope="module")
def loaded_systems(kron10_dataset):
    out = {}
    for name in ALL_SYSTEM_NAMES:
        s = create_system(name, n_threads=32)
        out[name] = (s, s.load(kron10_dataset))
    return out


@pytest.fixture(scope="module")
def refs(kron10_csr, kron10_dataset):
    roots = [int(r) for r in kron10_dataset.roots[:4]]
    return {
        "roots": roots,
        "levels": {r: bfs_parents(kron10_csr, r)[1] for r in roots},
        "dists": {r: sssp_dijkstra(kron10_csr, r) for r in roots},
        "rank": pagerank(kron10_csr)[0],
        "wcc": weakly_connected_components(kron10_csr),
        "cdlp": cdlp(kron10_csr, 10),
        # Every system's LCC is the one body in repro.algorithms.lcc, so
        # the oracle is networkx's, which shares no code with it.
        "lcc": networkx_clustering(kron10_csr),
    }


@pytest.mark.parametrize("name", BFS_SYSTEMS)
def test_bfs_levels_and_tree(name, loaded_systems, refs, kron10_csr):
    system, loaded = loaded_systems[name]
    for root in refs["roots"]:
        res = system.run(loaded, "bfs", root=root)
        assert np.array_equal(res.output["level"], refs["levels"][root]), \
            f"{name} BFS levels differ from reference (root {root})"
        validate_bfs_parents(kron10_csr, root, res.output["parent"])


@pytest.mark.parametrize("name", SSSP_SYSTEMS)
def test_sssp_distances(name, loaded_systems, refs):
    system, loaded = loaded_systems[name]
    for root in refs["roots"]:
        res = system.run(loaded, "sssp", root=root)
        validate_sssp_distances(res.output["dist"], refs["dists"][root])


@pytest.mark.parametrize("name", PR_SYSTEMS)
def test_pagerank_close_to_reference(name, loaded_systems, refs):
    system, loaded = loaded_systems[name]
    res = system.run(loaded, "pagerank")
    validate_pagerank(res.output["rank"], refs["rank"], tol=2e-3)


@pytest.mark.parametrize("name", WCC_SYSTEMS)
def test_wcc_labels(name, loaded_systems, refs):
    system, loaded = loaded_systems[name]
    res = system.run(loaded, "wcc")
    assert np.array_equal(res.output["labels"], refs["wcc"])


@pytest.mark.parametrize("name", CDLP_SYSTEMS)
def test_cdlp_labels(name, loaded_systems, refs):
    system, loaded = loaded_systems[name]
    res = system.run(loaded, "cdlp", iterations=10)
    assert np.array_equal(res.output["labels"], refs["cdlp"])


@pytest.mark.parametrize("name", LCC_SYSTEMS)
def test_lcc_values(name, loaded_systems, refs):
    system, loaded = loaded_systems[name]
    res = system.run(loaded, "lcc")
    assert np.allclose(res.output["lcc"], refs["lcc"])


def test_powergraph_driver_bfs(loaded_systems, refs):
    """The Graphalytics driver's hop program matches reference levels."""
    system, loaded = loaded_systems["powergraph"]
    for root in refs["roots"][:2]:
        res = system.run_toolkit_extension(loaded, "bfs-hops", root=root)
        assert np.array_equal(res.output["level"], refs["levels"][root])


class TestRealWorldCrossValidation:
    """Directed (cit-Patents) and dense weighted (dota) datasets."""

    @pytest.mark.parametrize("name", ("gap", "graphbig", "graphmat"))
    def test_bfs_on_directed_patents(self, name, patents_dataset,
                                     patents_small):
        csr = CSRGraph.from_edge_list(patents_small)
        root = int(patents_dataset.roots[0])
        ref = bfs_parents(csr, root)[1]
        s = create_system(name)
        loaded = s.load(patents_dataset)
        res = s.run(loaded, "bfs", root=root)
        assert np.array_equal(res.output["level"], ref)
        validate_bfs_parents(csr, root, res.output["parent"],
                             directed=True)

    @pytest.mark.parametrize("name", SSSP_SYSTEMS)
    def test_sssp_on_weighted_dota(self, name, dota_dataset, dota_small):
        csr = CSRGraph.from_edge_list(dota_small, symmetrize=True)
        root = int(dota_dataset.roots[0])
        ref = sssp_dijkstra(csr, root)
        s = create_system(name)
        loaded = s.load(dota_dataset)
        res = s.run(loaded, "sssp", root=root)
        validate_sssp_distances(res.output["dist"], ref,
                                rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("name", PR_SYSTEMS)
    def test_pagerank_on_patents(self, name, patents_dataset,
                                 patents_small):
        csr = CSRGraph.from_edge_list(patents_small)
        ref = pagerank(csr)[0]
        s = create_system(name)
        loaded = s.load(patents_dataset)
        res = s.run(loaded, "pagerank")
        validate_pagerank(res.output["rank"], ref, tol=5e-3)
