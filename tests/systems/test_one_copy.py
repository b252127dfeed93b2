"""Each structure is built once: on undirected input GAP's inverse is
its forward CSR and GraphMat's symmetric pattern is its matrix.

GAP's builder keeps no inverse of a symmetrized graph, and GraphMat's
``A^T`` of a symmetrized graph already has the symmetric pattern WCC
reads.  Both loads still price the construction round they used to
store a copy in, so ``read_s``, ``build_s`` and the build profile are
the values pinned below from the builds that held both copies.

No GAP kernel reads ``inn.weights`` on undirected input, which matters
because a transpose lists parallel arcs' weights in another order than
``out`` does (Kronecker multigraphs): delta-stepping and
Shiloach-Vishkin read ``out``, direction-optimizing BFS and PageRank
only ``inn``'s pattern.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.systems import create_system
from repro.systems.gap.graph import GapGraph
from tests.systems.test_interning import _same
from tests.systems.test_structural_goldens import run_digest

UNDIRECTED = ("kron10", "dota_small")

#: ``(read_s, build_s, build rounds)`` of the loads that stored both
#: copies.  GAP's rounds are its three passes (histogram, placement,
#: transpose) over ``m`` stored arcs; GraphMat's are its two tile
#: sorts and the symmetrization, over the symmetrized arcs.
PINNED = {
    ("kron10", "gap"): (
        0.005358176470588235, 0.001869715462070421,
        [(32656, 522496.0), (32656, 783744.0), (32656, 783744.0)]),
    ("kron10", "graphmat"): (
        0.0008549260869565217, 0.004469268669011251,
        [(32656, 783744.0), (32656, 783744.0), (32656, 522496.0)]),
    ("dota_small", "gap"): (
        0.00030368235294117644, 0.00039847715620582686,
        [(6326, 101216.0), (6326, 151824.0), (6326, 151824.0)]),
    ("dota_small", "graphmat"): (
        0.00016513478260869564, 0.0009383357912838429,
        [(6326, 151824.0), (6326, 151824.0), (6326, 101216.0)]),
    ("patents_small", "gap"): (
        0.0051854, 0.0008870087364631056,
        [(15069, 241104.0), (15069, 361656.0), (15069, 361656.0)]),
    ("patents_small", "graphmat"): (
        0.0007863173913043478, 0.0027843981534105234,
        [(15069, 361656.0), (15069, 361656.0), (30138, 482208.0)]),
}


@pytest.fixture(scope="module")
def datasets(kron10_dataset, dota_dataset, patents_dataset):
    return {"kron10": kron10_dataset, "dota_small": dota_dataset,
            "patents_small": patents_dataset}


def _loads(dataset, system):
    """The load without ``built``, and the one with (plus the dict)."""
    built: dict = {}
    return (create_system(system).load(dataset),
            create_system(system).load(dataset, built=built), built)


@pytest.mark.parametrize("graph", UNDIRECTED)
def test_undirected_structures_are_one_object(graph, datasets):
    for system, attrs in (("gap", ("inn", "out")),
                          ("graphmat", ("at_sym", "at"))):
        plain, shared, _ = _loads(datasets[graph], system)
        for loaded in (plain, shared):
            mirror, primary = (getattr(loaded.data, a) for a in attrs)
            assert mirror is primary, (graph, system)


@pytest.mark.parametrize("graph", UNDIRECTED)
def test_a_warm_cache_load_shares_them_too(graph, datasets, tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    for _ in range(2):      # cold store, then warm hit
        gap = create_system("gap").load(datasets[graph], cache=cache)
        mat = create_system("graphmat").load(datasets[graph], cache=cache)
        assert gap.data.inn is gap.data.out
        assert mat.data.at_sym is mat.data.at


def test_directed_structures_stay_distinct(datasets):
    dataset = datasets["patents_small"]
    for loaded in _loads(dataset, "gap")[:2]:
        data = loaded.data
        assert data.inn is not data.out
        want = data.out.transposed()
        for name in ("row_ptr", "col_idx", "weights"):
            assert _same(getattr(data.inn, name), getattr(want, name))
    el = dataset.load_edges().symmetrized()
    for loaded in _loads(dataset, "graphmat")[:2]:
        data = loaded.data
        assert data.at_sym is not data.at
        sym = data.at_sym.csr_view()
        keys = np.sort(el.dst * el.n_vertices + el.src)
        assert _same(np.sort(sym.source_ids() * el.n_vertices
                             + sym.col_idx), keys)


@pytest.mark.parametrize("graph,system", sorted(PINNED))
def test_load_prices_and_build_rounds_are_the_pinned_ones(graph, system,
                                                          datasets):
    read_s, build_s, rounds = PINNED[graph, system]
    plain, shared, built = _loads(datasets[graph], system)
    for loaded in (plain, shared):
        assert (loaded.read_s, loaded.build_s) == (read_s, build_s)
    (_, profile), = [v for k, v in built.items() if k[0] == system]
    assert [(r.units, r.memory_bytes) for r in profile.rounds] == rounds
    assert {r.skew for r in profile.rounds} == {0.05}
    assert profile.serial_units == 0.0


def test_no_gap_kernel_reads_the_inverse_weights(datasets):
    """A load whose inverse is the transpose -- same pattern, parallel
    arcs' weights in another order -- reports the bytes of the load
    whose inverse is ``out``."""
    dataset = datasets["kron10"]
    loaded = create_system("gap").load(dataset)
    out = loaded.data.out
    inverse = out.transposed()
    assert _same(inverse.row_ptr, out.row_ptr)
    assert _same(inverse.col_idx, out.col_idx)
    assert not _same(inverse.weights, out.weights)
    transposed = dataclasses.replace(
        loaded, data=GapGraph(out=out, inn=inverse, n=loaded.data.n,
                              directed=False))
    root = int(dataset.roots[0])
    for algorithm, params in (("bfs", {"root": root}),
                              ("sssp", {"root": root}),
                              ("pagerank", {}), ("wcc", {})):
        assert (run_digest("gap", algorithm, params, loaded)
                == run_digest("gap", algorithm, params, transposed)), \
            algorithm
