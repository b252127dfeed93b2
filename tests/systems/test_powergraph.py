"""PowerGraph-specific behaviour: vertex cut, GAS engine, overhead."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import sssp_dijkstra
from repro.errors import SystemCapabilityError
from repro.graph.csr import CSRGraph
from repro.graph.frontier import dedup_ids, gather_slots
from repro.graph.scratch import COUNTERS
from repro.machine.threads import WorkProfile
from repro.systems import create_system
from repro.systems.powergraph import programs
from repro.systems.powergraph.gas import GasEngine
from repro.systems.powergraph.system import random_ingress, replica_counts


def _placement(m, n_partitions):
    """The random ingress's arc placement."""
    return np.random.default_rng(7).integers(0, n_partitions, size=m,
                                             dtype=np.int64)


def replica_counts_by_sorting(src, dst, part, n_vertices, n_parts):
    """The census as it was before it counted on a table of flags:
    sort the distinct (vertex, part) keys, count them per vertex."""
    pairs = np.unique(np.concatenate([src * np.int64(n_parts) + part,
                                      dst * np.int64(n_parts) + part]))
    return np.bincount(pairs // n_parts, minlength=n_vertices)


@st.composite
def placed_arcs(draw):
    """Arcs (possibly none) over ``n`` vertices, any of which may have
    no arc, each placed on one of ``n_parts`` parts (``n_parts = 1``
    included)."""
    n = draw(st.integers(1, 12))
    n_parts = draw(st.integers(1, 6))
    m = draw(st.integers(0, 40))
    ids = st.integers(0, n - 1)
    src, dst, part = (np.array(draw(st.lists(values, min_size=m,
                                             max_size=m)), dtype=np.int64)
                      for values in (ids, ids, st.integers(0, n_parts - 1)))
    return src, dst, part, n, n_parts


@given(placed_arcs())
@settings(max_examples=200, deadline=None)
def test_replica_census_equals_the_sorting_census(case):
    got = replica_counts(*case)
    want = replica_counts_by_sorting(*case)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestVertexCut:
    def test_every_edge_assigned(self, kron10):
        """Each arc's partition hosts both its endpoints, and nothing
        else hosts a vertex."""
        part = _placement(kron10.n_edges, 16)
        replicas = replica_counts(kron10.src, kron10.dst, part,
                                  kron10.n_vertices, 16)
        hosted = np.zeros((kron10.n_vertices, 16), dtype=bool)
        hosted[kron10.src, part] = True
        hosted[kron10.dst, part] = True
        assert np.array_equal(replicas, hosted.sum(axis=1))

    def test_replication_factor_bounds(self, kron10):
        rep, mirrors = random_ingress(kron10.src, kron10.dst,
                                      kron10.n_vertices, 16)
        assert 1.0 <= rep <= 16.0
        assert mirrors > 0

    def test_high_degree_vertices_replicate_more(self, kron10):
        """The property behind PowerGraph's dense-graph advantage
        (Sec. IV-C): hubs spread over many partitions."""
        replicas = replica_counts(kron10.src, kron10.dst,
                                  _placement(kron10.n_edges, 16),
                                  kron10.n_vertices, 16)
        deg = kron10.degrees()
        hubs = deg >= np.percentile(deg[deg > 0], 95)
        leaves = (deg > 0) & (deg <= 2)
        assert replicas[hubs].mean() > replicas[leaves].mean()

    def test_deterministic(self, kron10):
        a = random_ingress(kron10.src, kron10.dst, kron10.n_vertices, 8)
        b = random_ingress(kron10.src, kron10.dst, kron10.n_vertices, 8)
        assert a == b

    def test_partition_count_validated(self):
        """Below one partition is refused at construction, like a bad
        ``engine``; ``None`` is the one-per-thread default."""
        for bad in (0, -1):
            with pytest.raises(SystemCapabilityError):
                create_system("powergraph", n_partitions=bad)
        assert create_system("powergraph", n_threads=8).n_partitions == 8
        assert create_system("powergraph", n_threads=1).n_partitions == 2


class TestGasEngine:
    def test_quiesces(self, kron10_dataset):
        s = create_system("powergraph")
        loaded = s.load(kron10_dataset)
        res = s.run(loaded, "sssp", root=int(kron10_dataset.roots[0]))
        assert res.iterations < 10_000  # reached quiescence, not cap

    def test_initially_active_scatter_once(self):
        """Regression: the SSSP root's unchanged apply must still
        scatter on superstep 1."""
        src = np.array([0, 1])
        dst = np.array([1, 2])
        w = np.array([1.0, 1.0])
        out = CSRGraph.from_arrays(src, dst, 3, weights=w)
        engine = GasEngine(out, random_ingress(src, dst, 3, 2)[0])
        dist, _, _, _ = programs.run_sssp(engine, 0)
        assert dist.tolist() == [0.0, 1.0, 2.0]

    def test_mirror_sync_charged(self, kron10_dataset):
        """Per-superstep work includes replication traffic."""
        s = create_system("powergraph")
        loaded = s.load(kron10_dataset)
        res = s.run(loaded, "pagerank")
        rep = res.counters["replication_factor"]
        assert rep > 1.0
        n = loaded.n_vertices
        per_sweep = res.profile.rounds[0].units
        assert per_sweep >= loaded.n_arcs + n + rep * n - 1


# ----------------------------------------------------------------------
# The accumulator cache against the full-gather engine it replaced.
# ----------------------------------------------------------------------


class FullGatherEngine(GasEngine):
    """The engine as it stood before the accumulator cache (commit
    f305889), loop and phases verbatim: every signalled vertex
    re-gathers all of its in-edges each superstep, and the signalled set
    comes from a second expansion.  Runs the per-edge programs of that
    commit (``gather(state, srcs, dsts, weights)``)."""

    def _gather_phase(self, program, state, targets):
        inn = self.inn
        gathered = np.full(targets.size, program.identity, dtype=np.float64)
        gs = gather_slots(inn.row_ptr, targets, self._scratch())
        if gs.total == 0:
            return gathered, 0
        srcs = inn.col_idx[gs.slots]
        dst_rep = np.repeat(targets, gs.counts)
        w = inn.weights[gs.slots] if inn.weights is not None else None
        contributions = program.gather(state, srcs, dst_rep, w)
        idx = np.repeat(np.arange(targets.size), gs.counts)
        np.minimum.at(gathered, idx, contributions)
        return gathered, gs.total

    def run(self, program, initial, initially_active,
            max_supersteps=10_000):
        n = self.inn.n_vertices
        state = SimpleNamespace(data=initial.copy(),
                                active=initially_active.copy(),
                                superstep=0)
        profile = WorkProfile()
        rep = max(self.replication_factor, 1.0)
        out_deg = self.out.out_degrees()
        max_deg = float(out_deg.max()) if n else 0.0
        gathered_edges = 0
        scattered_edges = 0

        while state.active.any() and state.superstep < max_supersteps:
            state.superstep += 1
            if state.superstep == 1:
                targets = np.flatnonzero(state.active)
            else:
                targets = self._signaled(state.active)
            if targets.size == 0:
                break
            gathered, g_edges = self._gather_phase(program, state, targets)
            gathered_edges += g_edges

            old_vals = state.data[targets].copy()
            new_vals = program.apply(state, targets, gathered)
            changed_mask = np.abs(new_vals - old_vals) > program.tolerance
            state.data[targets] = new_vals
            if state.superstep == 1:
                changed = targets
            else:
                changed = targets[changed_mask]

            s_edges = int(out_deg[changed].sum())
            scattered_edges += s_edges
            mirror_units = rep * targets.size
            units = g_edges + s_edges + targets.size + mirror_units
            profile.add_round(
                units=units,
                memory_bytes=24.0 * (g_edges + s_edges) + 16.0 * mirror_units,
                skew=min(max_deg / max(units, 1.0), 1.0))

            nxt = np.zeros(n, dtype=bool)
            nxt[changed] = True
            state.active = nxt

        stats = {
            "supersteps": state.superstep,
            "gathered_edges": gathered_edges,
            "scattered_edges": scattered_edges,
            "replication_factor": self.replication_factor,
        }
        return state.data, state.superstep, profile, stats

    def _signaled(self, active):
        frontier = np.flatnonzero(active)
        out = self.out
        scratch = self._scratch()
        gs = gather_slots(out.row_ptr, frontier, scratch)
        if gs.total == 0:
            return np.empty(0, dtype=np.int64)
        return dedup_ids(out.col_idx[gs.slots], out.n_vertices, scratch)


def _min_apply(state, vertices, gathered):
    return np.minimum(state.data[vertices], gathered)


#: The three programs as commit f305889 declared them.
PER_EDGE_GATHER = {
    "sssp": lambda state, srcs, dsts, weights: state.data[srcs] + weights,
    "bfs-hops": lambda state, srcs, dsts, weights: state.data[srcs] + 1.0,
    "wcc": lambda state, srcs, dsts, weights: state.data[srcs],
}
RUNNERS = {"sssp": programs.run_sssp, "bfs-hops": programs.run_bfs_hops}


def _full_gather_run(engine, name, root):
    n = engine.inn.n_vertices
    program = SimpleNamespace(gather=PER_EDGE_GATHER[name],
                              apply=_min_apply, tolerance=0.0,
                              identity=np.inf)
    if name == "wcc":
        return engine.run(program, np.arange(n, dtype=np.float64),
                          np.ones(n, dtype=bool))
    data = np.full(n, np.inf)
    data[root] = 0.0
    active = np.zeros(n, dtype=bool)
    active[root] = True
    return engine.run(program, data, active)


@st.composite
def gas_cases(draw):
    """A small directed weighted multigraph -- parallel arcs of
    different weights, self-loops, zero-weight arcs, sinks, isolated and
    unreachable vertices all likely -- and a root."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 70))
    ids = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src = np.array(draw(ids), dtype=np.int64)
    dst = np.array(draw(ids), dtype=np.int64)
    w = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 4.0, allow_nan=False)),
        min_size=m, max_size=m)), dtype=np.float64)
    if draw(st.booleans()):
        # A root with no out-arcs: the trailing-superstep case.
        keep = src != 0
        src, dst, w = src[keep], dst[keep], w[keep]
        root = 0
    else:
        root = draw(st.integers(0, n - 1))
    return n, src, dst, w, root


def _engines(n, src, dst, w):
    rep, _ = random_ingress(src, dst, n, 4)
    out = CSRGraph.from_arrays(src, dst, n, weights=w)
    return GasEngine(out, rep), FullGatherEngine(out, rep)


def _assert_same_run(got, want):
    g_data, g_steps, g_profile, g_stats = got
    w_data, w_steps, w_profile, w_stats = want
    assert g_data.dtype == w_data.dtype
    assert g_data.tobytes() == w_data.tobytes()
    assert g_steps == w_steps
    g_arrays, w_arrays = g_profile.to_arrays(), w_profile.to_arrays()
    assert g_arrays.keys() == w_arrays.keys()
    for key in g_arrays:
        assert g_arrays[key].tobytes() == w_arrays[key].tobytes(), key
    assert g_profile.serial_units == w_profile.serial_units
    assert g_stats == w_stats
    assert {k: type(v) for k, v in g_stats.items()} == \
        {k: type(v) for k, v in w_stats.items()}


class TestAccumulatorCache:
    @given(gas_cases(), st.sampled_from(["sssp", "bfs-hops"]))
    @settings(max_examples=150, deadline=None)
    def test_rooted_programs_equal_full_gather(self, case, name):
        n, src, dst, w, root = case
        engine, reference = _engines(n, src, dst, w)
        _assert_same_run(RUNNERS[name](engine, root),
                         _full_gather_run(reference, name, root))

    @given(gas_cases(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_wcc_equals_full_gather(self, case, symmetrize):
        """Directed too: the engines must agree on any graph, whatever
        the system feeds WCC."""
        n, src, dst, _, _ = case
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        rep, _ = random_ingress(src, dst, n, 4)
        out = CSRGraph.from_arrays(src, dst, n, symmetric=symmetrize)
        data, steps, profile, stats = programs.run_wcc(GasEngine(out, rep))
        w_data, *rest = _full_gather_run(FullGatherEngine(out, rep), "wcc",
                                         None)
        _assert_same_run((data, steps, profile, stats),
                         (w_data.astype(np.int64), *rest))

    def test_sink_root_counts_the_trailing_superstep(self):
        """The root scatters to nobody: the superstep that finds no one
        signalled is still counted, and adds no profile round."""
        src = np.array([1, 2])
        dst = np.array([0, 0])
        engine, reference = _engines(3, src, dst, np.array([1.0, 2.0]))
        got = programs.run_sssp(engine, 0)
        assert got[1] == 2 and len(got[2].rounds) == 1
        _assert_same_run(got, _full_gather_run(reference, "sssp", 0))

    def test_superstep_cap_equals_full_gather(self):
        src = np.arange(9)
        dst = np.arange(1, 10)
        engine, reference = _engines(10, src, dst, np.ones(9))
        dist = np.full(10, np.inf)
        dist[0] = 0.0
        active = np.zeros(10, dtype=bool)
        active[0] = True
        got = engine.run(dist, active, max_supersteps=4)
        want = reference.run(
            SimpleNamespace(gather=PER_EDGE_GATHER["sssp"],
                            apply=_min_apply, tolerance=0.0,
                            identity=np.inf),
            dist, active, max_supersteps=4)
        assert got[1] == 4 and np.isinf(got[0][5])
        _assert_same_run(got, want)

    def test_kron10_all_roots(self, kron10_dataset):
        s = create_system("powergraph")
        loaded = s.load(kron10_dataset)
        engine = loaded.data.engine
        reference = FullGatherEngine(engine.out, engine.replication_factor)
        for root in kron10_dataset.roots[:4]:
            for name in ("sssp", "bfs-hops"):
                _assert_same_run(
                    RUNNERS[name](engine, int(root)),
                    _full_gather_run(reference, name, int(root)))


class TestOverheadBehaviour:
    def test_engine_startup_dominates_small_graphs(self, kron10_dataset):
        """Sec. VI: 'the overhead of these frameworks may dominate for
        smaller problem sizes.'"""
        s = create_system("powergraph")
        loaded = s.load(kron10_dataset)
        res = s.run(loaded, "sssp", root=int(kron10_dataset.roots[0]))
        assert res.sim.startup_s / res.time_s > 0.5

    def test_slowest_sssp_of_all_systems(self, kron10_dataset):
        """Fig 3: PowerGraph is the slowest SSSP."""
        root = int(kron10_dataset.roots[0])
        times = {}
        for name in ("gap", "graphbig", "graphmat", "powergraph"):
            s = create_system(name)
            loaded = s.load(kron10_dataset)
            times[name] = s.run(loaded, "sssp", root=root).time_s
        assert times["powergraph"] == max(times.values())


class TestAsyncEngine:
    """PowerGraph's --engine async (min-programs via best-first
    label-correcting instead of BSP sweeps)."""

    def test_sssp_matches_sync(self, kron10_dataset):
        root = int(kron10_dataset.roots[0])
        sync = create_system("powergraph", engine="sync")
        asy = create_system("powergraph", engine="async")
        d_sync = sync.run(sync.load(kron10_dataset), "sssp",
                          root=root).output["dist"]
        d_async = asy.run(asy.load(kron10_dataset), "sssp",
                          root=root).output["dist"]
        assert np.allclose(np.nan_to_num(d_sync, posinf=-1),
                           np.nan_to_num(d_async, posinf=-1))

    def test_wcc_matches_sync(self, kron10_dataset):
        sync = create_system("powergraph", engine="sync")
        asy = create_system("powergraph", engine="async")
        a = sync.run(sync.load(kron10_dataset), "wcc").output["labels"]
        b = asy.run(asy.load(kron10_dataset), "wcc").output["labels"]
        assert np.array_equal(a, b)

    def test_async_relaxes_fewer_edges(self, kron10_dataset):
        """Best-first ordering processes each vertex near-optimally,
        relaxing fewer edges than frontier-wide synchronous sweeps."""
        root = int(kron10_dataset.roots[0])
        sync = create_system("powergraph", engine="sync")
        asy = create_system("powergraph", engine="async")
        r_sync = sync.run(sync.load(kron10_dataset), "sssp", root=root)
        r_async = asy.run(asy.load(kron10_dataset), "sssp", root=root)
        assert r_async.counters["gathered_edges"] < \
            r_sync.counters["gathered_edges"]

    def test_async_bfs_driver(self, kron10_dataset, kron10_csr):
        from repro.algorithms import bfs_parents

        asy = create_system("powergraph", engine="async")
        loaded = asy.load(kron10_dataset)
        root = int(kron10_dataset.roots[1])
        res = asy.run_toolkit_extension(loaded, "bfs-hops", root=root)
        assert np.array_equal(res.output["level"],
                              bfs_parents(kron10_csr, root)[1])

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemCapabilityError):
            create_system("powergraph", engine="fiber")


class TestStructure:
    def test_undirected_input_shares_one_engine(self, kron10_dataset,
                                                patents_dataset):
        """WCC's symmetrized engine is the directed one on undirected
        input, and ``nbytes`` counts it once."""
        s = create_system("powergraph")
        und = s.load(kron10_dataset).data
        assert und.engine_sym is und.engine
        assert und.nbytes() == und.engine.inn.nbytes() + \
            und.engine.out.nbytes()
        directed = s.load(patents_dataset).data
        assert directed.engine_sym is not directed.engine
        assert directed.engine_sym.out.weights is None

    def test_toolkit_extension_drains_its_counters(self, kron10_dataset):
        """The bfs-hops driver leaves no frontier counters for the next
        run of any system to absorb."""
        s = create_system("powergraph")
        loaded = s.load(kron10_dataset)
        s.run_toolkit_extension(loaded, "bfs-hops",
                                root=int(kron10_dataset.roots[0]))
        assert COUNTERS["gather_edges"] == 0.0

    def test_toolkit_extension_checks_its_root(self, kron10_dataset):
        s = create_system("powergraph")
        loaded = s.load(kron10_dataset)
        for root in (None, -1, loaded.n_vertices):
            with pytest.raises(SystemCapabilityError):
                s.run_toolkit_extension(loaded, "bfs-hops", root=root)
