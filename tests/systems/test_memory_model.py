"""Memory-model consistency: the feasibility predictor's per-system
footprint formulas vs. the *actual* built structures.

If `estimate_memory_bytes` drifts from what the systems really
allocate, the "will it fit in RAM?" verdicts become fiction; this
module pins the two together within 2 % on kron10 at edge factors 16
and 4 (two densities pin both the per-arc and the per-vertex
coefficient), and checks the orderings feasibility decisions rely on.
"""

import pytest

from repro.core.projection import WorkloadSize, estimate_memory_bytes
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
