"""Memory-model consistency: the feasibility predictor's per-system
footprint formulas vs. the *actual* built structures.

If `estimate_memory_bytes` drifts from what the systems really
allocate, the "will it fit in RAM?" verdicts become fiction; this
module pins the two together within 2 % on kron10 at edge factors 16
and 4 (two densities pin both the per-arc and the per-vertex
coefficient), and checks the orderings feasibility decisions rely on.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.projection import WorkloadSize, estimate_memory_bytes
from repro.graph.edgelist import EdgeList
from repro.systems import create_system
from repro.systems.registry import ALL_SYSTEM_NAMES


@pytest.fixture(scope="module")
def kron10_ef4_dataset(tmp_path_factory):
    from repro.datasets.homogenize import homogenize
    from repro.datasets.kronecker import KroneckerSpec, generate_kronecker

    return homogenize(
        generate_kronecker(KroneckerSpec(scale=10, edge_factor=4,
                                         weighted=True)),
        tmp_path_factory.mktemp("kron10-ef4"))


@pytest.fixture(scope="module")
def loaded_all(kron10_dataset):
    out = {}
    for name in ALL_SYSTEM_NAMES:
        s = create_system(name)
        out[name] = s.load(kron10_dataset)
    return out


def _size(dataset) -> WorkloadSize:
    # The systems symmetrize the undirected tuple list: arcs = 2m.
    return WorkloadSize(n_vertices=dataset.n_vertices,
                        n_arcs=2 * dataset.n_edges)


@pytest.mark.parametrize("name", ALL_SYSTEM_NAMES)
def test_estimate_within_2x_of_actual(name, loaded_all, kron10_dataset,
                                      kron10_ef4_dataset):
    sparse = create_system(name).load(kron10_ef4_dataset)
    for loaded, dataset in ((loaded_all[name], kron10_dataset),
                            (sparse, kron10_ef4_dataset)):
        actual = loaded.data.nbytes()
        estimate = estimate_memory_bytes(name, _size(dataset))
        assert estimate == pytest.approx(actual, rel=0.02), (
            name, dataset.n_edges, estimate, actual)


def test_actual_footprint_ordering(loaded_all):
    """Graph500's single CSR is the smallest resident structure; the
    double-structure systems (GAP, GraphMat, PowerGraph) cost more."""
    actual = {n: loaded_all[n].data.nbytes() for n in ALL_SYSTEM_NAMES}
    assert actual["graph500"] == min(actual.values())
    for heavy in ("gap", "graphmat", "powergraph"):
        assert actual[heavy] > 1.5 * actual["graph500"]


def test_nbytes_positive_and_scales(kron10_dataset, tmp_path):
    """A bigger graph yields a bigger structure, for every system."""
    from repro.datasets.homogenize import homogenize
    from repro.datasets.kronecker import KroneckerSpec, generate_kronecker

    small = kron10_dataset
    big = homogenize(
        generate_kronecker(KroneckerSpec(scale=11, weighted=True)),
        tmp_path)
    for name in ALL_SYSTEM_NAMES:
        s = create_system(name)
        a = s.load(small).data.nbytes()
        b = s.load(big).data.nbytes()
        assert 0 < a < b, name


#: GraphMat's ``nbytes()``: the DCSR it models (the transpose's CSR
#: with the row pointer swapped for 16 B per non-empty row plus 8),
#: counted, not held.  Pinned from the DCSR record it used to store.
GRAPHMAT_NBYTES = {"kron10": 544_968, "kron10_ef4": 150_056,
                   "patents_small": 628_320}


def test_graphmat_footprint_is_pinned(kron10_dataset, kron10_ef4_dataset,
                                      patents_dataset):
    """Undirected input shares one symmetric ``at`` (counted once);
    the directed cit-Patents stand-in adds its symmetrized pattern."""
    s = create_system("graphmat")
    for key, dataset in (("kron10", kron10_dataset),
                         ("kron10_ef4", kron10_ef4_dataset),
                         ("patents_small", patents_dataset)):
        data = s.load(dataset).data
        assert data.nbytes() == GRAPHMAT_NBYTES[key], key
        if dataset.directed:
            assert data.at_sym is not data.at and data.at_sym.symmetric
            assert not data.at.symmetric
        else:
            assert data.at_sym is data.at and data.at.symmetric
            assert data.at.transposed() is data.at


@pytest.mark.parametrize("directed, want", [(False, 48), (True, 56)])
def test_graphmat_footprint_of_an_edgeless_graph(directed, want):
    """Five vertices, no arc: each matrix is its 8 B closing offset,
    beside 40 B of degrees."""
    empty = np.empty(0, dtype=np.int64)
    s = create_system("graphmat")
    arrays, meta, _ = s._build(EdgeList(empty, empty, 5, directed=directed),
                               SimpleNamespace(directed=directed))
    assert s._assemble(arrays, meta).nbytes() == want
