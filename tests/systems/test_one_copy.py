"""Each structure is built once, and in-arcs come from
``CSRGraph.transposed()``.

On undirected input every system's in-arcs are its out-arcs' own CSR:
GAP's builder keeps no inverse of a symmetrized graph, GraphMat's
``A^T`` of a symmetrized graph already has the symmetric pattern WCC
reads, GraphBIG's in-edge lists are its out-edge lists, and each
PowerGraph engine's in-CSR is its out-CSR.  On directed input GAP and
PowerGraph read a stored transpose back from the build (or the cache
bundle) and PowerGraph's WCC engine holds one symmetrized CSR, where
it used to hold two byte-equal ones.  Every load still prices the
construction round it used to store a copy in, so ``read_s``,
``build_s`` and the build profile are the values pinned below from
the builds that held every copy.

No kernel reads in-arc weights where a computed transpose would list
them in another order than ``out`` does (parallel arcs of a Kronecker
multigraph): SSSP pulls take a minimum over them, and direction-
optimizing BFS, PageRank and WCC read only the pattern.  So a load
whose in-arcs are the computed transpose reports the same bytes, and
GraphBIG's and GraphMat's runs report the digests pinned before their
kernels stopped asking whether the input was directed.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.graph.csr import CSRGraph
from repro.systems import create_system
from repro.systems.gap.graph import GapGraph
from repro.systems.powergraph.gas import GasEngine
from repro.systems.powergraph.system import PowerGraphData
from repro.systems.session import DatasetSession
from tests.systems.test_interning import _same
from tests.systems.test_structural_goldens import run_digest

UNDIRECTED = ("kron10", "dota_small")

#: ``(read_s, build_s, build rounds)`` of the loads that stored both
#: copies.  GAP's rounds are its three passes (histogram, placement,
#: transpose) over ``m`` stored arcs; GraphMat's are its two tile
#: sorts and the symmetrization, over the symmetrized arcs;
#: PowerGraph's are its ingest (arcs plus mirrors), the CSR pair and
#: WCC's symmetrized pair, with the build folded into ``read_s``.
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
    ("kron10", "powergraph"): (
        0.01883361624138694, None,
        [(45917, 1306240.0), (32656, 783744.0), (32656, 522496.0)]),
    ("dota_small", "powergraph"): (
        0.0031816076609268193, None,
        [(9678, 253040.0), (6326, 151824.0), (6326, 101216.0)]),
    ("patents_small", "powergraph"): (
        0.01531739959556031, None,
        [(37975, 602760.0), (15069, 361656.0), (30138, 482208.0)]),
}

#: ``run_digest`` of each GraphBIG and GraphMat kernel that pulls over
#: in-arcs, from the first root, pinned while each kernel was still
#: told whether its input was symmetric.
RUN_DIGESTS = {
    "kron10/graphbig/bfs":
        "6dbb1ad591ec6df26451b14b3eafa75840eae11f68d48f84537f9da24edbe698",
    "kron10/graphbig/sssp":
        "3d3e3a4d2c9e33b551a66c104b8b1d60ae9d26ba34169c726f1a04ab9c8d86b0",
    "kron10/graphbig/wcc":
        "36d985c032d088cd9cc579d9bc8454560f69b30678db798940a2da054c8b4a6b",
    "kron10/graphbig/cc":
        "c09d5beeeee71371ebcf02e7096df0b42e900d4c0800e2a07beb9c0425814350",
    "kron10/graphmat/bfs":
        "bf4c38604dc818d0ab59ea725ac675d891f769119e514f05778d17c779fbddcb",
    "kron10/graphmat/sssp":
        "f4b0e3c48be62e7a53751f43c6aeb8471513161fe8eb8c043d7348737dcad349",
    "kron10/graphmat/wcc":
        "5017693f8cd0438791d2387910479d56f73b44a6ef021aaaa725b71236893be8",
    "dota_small/graphbig/bfs":
        "48119d0fc92bd973975cd43514706e8314ea2ef8c8621403dc97eb8d805d7794",
    "dota_small/graphbig/sssp":
        "8617ed0b50324b759cace32a215f5cbddbc53a292f53fe7c94ac2bee0433efa9",
    "dota_small/graphbig/wcc":
        "d790d01d2c09283e6c6a976fd59d35b23a4bb996b04538811f54d352d7dc0177",
    "dota_small/graphbig/cc":
        "f686785a4c323ee755417a1a8890b54156d4b98d32881b98f8961247de888971",
    "dota_small/graphmat/bfs":
        "6f20a6e8a11ff4117f5f79f4e4ef4d7377e998e4d708192f32b2ff1ee029737d",
    "dota_small/graphmat/sssp":
        "130e772ab74590514e8b744bc243196880d430197a325277b114e820cfc98269",
    "dota_small/graphmat/wcc":
        "69fe0787fdf0bb51fc2e4d111d7f0143261f06ba982349004204bb68eeaee48a",
    "patents_small/graphbig/bfs":
        "c5267806ddeba991c39098cd81681b8e666f8c827dfe0c0acbc921c6bd39e46b",
    "patents_small/graphbig/sssp":
        "061621cbb0754e588a099306dbdaf5fdfd39d56d0c0b5b10ac588ea9101faf1b",
    "patents_small/graphbig/wcc":
        "db4884c0b89452f98ac6f6a121e3170e0c11df0e1f0ee8604e11b21856d0fc1e",
    "patents_small/graphbig/cc":
        "2b3bc9a051c1427a0aa379a44b3250eba7bec37ff44352b904a73c982cd2cb20",
    "patents_small/graphmat/bfs":
        "7f75651d24f5a66f60711c6ffd81edaab30e9aa905e280752b6e52eef3cd21dd",
    "patents_small/graphmat/sssp":
        "87a4ac70c34ede6424fbd3c6976793ef555a093c07734f850737dcda7ee60de5",
    "patents_small/graphmat/wcc":
        "e36d61e5ee06d9e24105cfb8fdd3df8e899526fe4384bf4f71dc4be3088bb135",
}


@pytest.fixture(scope="module")
def datasets(kron10_dataset, dota_dataset, patents_dataset):
    return {"kron10": kron10_dataset, "dota_small": dota_dataset,
            "patents_small": patents_dataset}


def _loads(dataset, system):
    """The load in a private session, and the one in a session of the
    caller's (plus that session)."""
    session = DatasetSession(dataset)
    return (create_system(system).load(dataset),
            create_system(system).load(dataset, session=session), session)


def _pairs(data, system):
    """``(mirror, primary)`` pairs that are one object on undirected
    input: the in-arcs or symmetric pattern beside what it mirrors."""
    if system == "gap":
        return [(data.inn, data.out)]
    if system == "graphmat":
        return [(data.at_sym, data.at)]
    if system == "graphbig":
        return [(data.out.transposed(), data.out)]
    return [(data.engine.inn, data.engine.out),
            (data.engine_sym, data.engine)]


@pytest.mark.parametrize("graph", UNDIRECTED)
def test_undirected_structures_are_one_object(graph, datasets):
    for system in ("gap", "graphmat", "graphbig", "powergraph"):
        plain, shared, _ = _loads(datasets[graph], system)
        for loaded in (plain, shared):
            for mirror, primary in _pairs(loaded.data, system):
                assert mirror is primary, (graph, system)


@pytest.mark.parametrize("graph", UNDIRECTED)
def test_a_warm_cache_load_shares_them_too(graph, datasets, tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    for _ in range(2):      # cold store, then warm hit
        for system in ("gap", "graphmat", "graphbig", "powergraph"):
            loaded = create_system(system).load(datasets[graph],
                                                cache=cache)
            for mirror, primary in _pairs(loaded.data, system):
                assert mirror is primary, (graph, system)
    assert cache.stats["hits"] == 4


def test_directed_structures_stay_distinct(datasets):
    dataset = datasets["patents_small"]
    for loaded in _loads(dataset, "gap")[:2]:
        data = loaded.data
        assert data.inn is not data.out
        want = CSRGraph(data.out.row_ptr, data.out.col_idx,
                        data.out.weights).transposed()
        for name in ("row_ptr", "col_idx", "weights"):
            assert _same(getattr(data.inn, name), getattr(want, name))
    el = dataset.load_edges().symmetrized()
    for loaded in _loads(dataset, "graphmat")[:2]:
        data = loaded.data
        assert data.at_sym is not data.at
        sym = data.at_sym
        keys = np.sort(el.dst * el.n_vertices + el.src)
        assert _same(np.sort(sym.source_ids() * el.n_vertices
                             + sym.col_idx), keys)


def _interned(array, session) -> bool:
    """Whether ``array`` is, or views, a canonical array of
    ``session`` (a CSR holds a memmap's plain-array view)."""
    return any(c is array or c is array.base
               for bucket in session.interned.values() for c in bucket)


def test_a_stored_transpose_is_read_back_and_interned(datasets, tmp_path):
    """Directed input: GAP's and PowerGraph's in-CSR is the transpose
    the build stored, read back and interned -- on a warm cache load
    too, where it is the bundle's memmap -- and PowerGraph's WCC engine
    holds one symmetrized CSR, its own transpose."""
    dataset = datasets["patents_small"]
    cache = ArtifactCache(tmp_path / "cache")
    for warm in (False, True):
        session = DatasetSession(dataset, cache)
        gap, pg = (create_system(system).load(
            dataset, cache=cache, session=session).data
            for system in ("gap", "powergraph"))
        assert pg.engine_sym.inn is pg.engine_sym.out
        assert pg.engine_sym.out.symmetric
        for holder in (gap, pg.engine):
            out, inn = holder.out, holder.inn
            assert inn is not out and inn.transposed() is out
            want = CSRGraph(out.row_ptr, out.col_idx,
                            out.weights).transposed()
            for name in ("row_ptr", "col_idx", "weights"):
                got = getattr(inn, name)
                assert _same(got, getattr(want, name)), name
                assert _interned(got, session), name
                assert isinstance(got.base, np.memmap) == warm, name
    assert cache.stats["hits"] == 2


@pytest.mark.parametrize("graph,system", sorted(PINNED))
def test_load_prices_and_build_rounds_are_the_pinned_ones(graph, system,
                                                          datasets):
    read_s, build_s, rounds = PINNED[graph, system]
    plain, shared, session = _loads(datasets[graph], system)
    for loaded in (plain, shared):
        assert (loaded.read_s, loaded.build_s) == (read_s, build_s)
    (_, profile), = [v for k, v in session.builds.items()
                     if k[0] == system]
    assert [(r.units, r.memory_bytes) for r in profile.rounds] == rounds
    assert {r.skew for r in profile.rounds} == {0.05}
    assert profile.serial_units == 0.0


def _unmarked(csr: CSRGraph) -> CSRGraph:
    """``csr``'s arrays in a CSR that does not know it is symmetric:
    its in-arcs are the computed transpose."""
    return CSRGraph(csr.row_ptr, csr.col_idx, csr.weights)


def test_no_gap_kernel_reads_the_inverse_weights(datasets):
    """A load whose inverse is the transpose -- same pattern, parallel
    arcs' weights in another order -- reports the bytes of the load
    whose inverse is ``out``."""
    dataset = datasets["kron10"]
    loaded = create_system("gap").load(dataset)
    out = _unmarked(loaded.data.out)
    inverse = out.transposed()
    assert _same(inverse.row_ptr, out.row_ptr)
    assert _same(inverse.col_idx, out.col_idx)
    assert not _same(inverse.weights, out.weights)
    transposed = dataclasses.replace(
        loaded, data=GapGraph(out=out, n=loaded.data.n, directed=False))
    root = int(dataset.roots[0])
    for algorithm, params in (("bfs", {"root": root}),
                              ("sssp", {"root": root}),
                              ("pagerank", {}), ("wcc", {})):
        assert (run_digest("gap", algorithm, params, loaded)
                == run_digest("gap", algorithm, params, transposed)), \
            algorithm


def _facts(res) -> tuple:
    """Everything one run reports, as comparable values."""
    return ([(k, v.tobytes()) for k, v in sorted(res.output.items())],
            res.iterations, res.time_s, sorted(res.counters.items()),
            [a.tobytes() for _, a in sorted(res.profile.to_arrays().items())])


def test_no_powergraph_program_reads_the_inverse_weights(datasets):
    """PowerGraph's SSSP, PageRank, WCC and Graphalytics BFS report the
    same bytes whether the engine's in-CSR is its out-CSR or the
    computed transpose."""
    dataset = datasets["kron10"]
    loaded = create_system("powergraph").load(dataset)
    engine = loaded.data.engine
    other = GasEngine(_unmarked(engine.out), engine.replication_factor)
    assert not _same(other.inn.weights, engine.out.weights)
    transposed = dataclasses.replace(loaded, data=PowerGraphData(
        engine=other, engine_sym=other, mirrors=loaded.data.mirrors,
        n=loaded.data.n))
    system = create_system("powergraph")
    root = int(dataset.roots[0])
    for algorithm, params in (("sssp", {"root": root}), ("pagerank", {}),
                              ("wcc", {})):
        assert (_facts(system.run(loaded, algorithm, **params))
                == _facts(system.run(transposed, algorithm, **params))), \
            algorithm
    hops = [_facts(system.run_toolkit_extension(g, "bfs-hops", root))
            for g in (loaded, transposed)]
    assert hops[0] == hops[1]


@pytest.mark.parametrize("cell", sorted(RUN_DIGESTS))
def test_pull_kernels_report_the_pinned_runs(cell, datasets):
    graph, system, algorithm = cell.split("/")
    dataset = datasets[graph]
    params = ({"root": int(dataset.roots[0])}
              if algorithm in ("bfs", "sssp") else {})
    loaded = create_system(system).load(dataset)
    assert run_digest(system, algorithm, params, loaded) == \
        RUN_DIGESTS[cell]
