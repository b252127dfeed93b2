"""GAP-specific behaviour: direction optimization, delta-stepping,
Gauss-Seidel PageRank, the integer-weight build."""

import numpy as np
import pytest

from repro.algorithms import bfs_parents, pagerank, sssp_dijkstra
from repro.systems import create_system
from repro.systems.gap.bfs import dobfs
from repro.systems.gap.graph import build_gap_graph
from repro.systems.gap.pagerank import pagerank_gs
from repro.systems.gap.sssp import delta_stepping


@pytest.fixture(scope="module")
def gap_graph(kron10):
    g, _ = build_gap_graph(kron10, directed=False)
    return g


class TestDirectionOptimizingBfs:
    def test_uses_bottom_up_on_dense_kron(self, gap_graph):
        _, _, _, stats = dobfs(gap_graph, 0)
        assert "B" in stats["steps"], \
            "DO-BFS never switched bottom-up on a Kronecker graph"

    def test_tiny_alpha_disables_bottom_up(self, gap_graph):
        """Switch condition is m_f > m_u / alpha: alpha -> 0 means the
        frontier can never qualify, forcing pure top-down."""
        _, _, _, stats = dobfs(gap_graph, 0, alpha=1e-9)
        assert "B" not in stats["steps"]

    def test_bottom_up_reduces_examined_edges(self, gap_graph):
        _, _, p_do, _ = dobfs(gap_graph, 0)
        _, _, p_td, _ = dobfs(gap_graph, 0, alpha=1e-9)
        assert p_do.total_units < p_td.total_units

    def test_levels_independent_of_direction(self, gap_graph, kron10_csr):
        ref = bfs_parents(kron10_csr, 5)[1]
        for alpha in (1e-9, 15.0, 1e9):
            _, level, _, _ = dobfs(gap_graph, 5, alpha=alpha)
            assert np.array_equal(level, ref)

    def test_records_one_round_per_level(self, gap_graph):
        _, level, profile, stats = dobfs(gap_graph, 0)
        assert len(profile.rounds) == stats["depth"]
        # The last round may discover nothing (termination probe).
        assert level.max() in (stats["depth"], stats["depth"] - 1)


class TestDeltaStepping:
    def test_matches_dijkstra(self, gap_graph, kron10_csr):
        want = sssp_dijkstra(kron10_csr, 9)
        got, _, _ = delta_stepping(gap_graph, 9)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.allclose(got[finite], want[finite])

    def test_delta_extremes_agree(self, gap_graph):
        tiny, _, _ = delta_stepping(gap_graph, 3, delta=0.01)
        huge, _, _ = delta_stepping(gap_graph, 3, delta=100.0)
        assert np.allclose(np.nan_to_num(tiny, posinf=-1),
                           np.nan_to_num(huge, posinf=-1))

    def test_large_delta_is_bellman_ford(self, gap_graph):
        """delta=inf puts everything in one bucket: fewer phases, more
        relaxations per phase."""
        _, _, s_small = delta_stepping(gap_graph, 3, delta=0.05)
        _, _, s_large = delta_stepping(gap_graph, 3, delta=1e6)
        assert s_large["phases"] < s_small["phases"]

    def test_rejects_bad_delta(self, gap_graph):
        from repro.errors import SystemCapabilityError

        with pytest.raises(SystemCapabilityError):
            delta_stepping(gap_graph, 0, delta=0.0)

    def test_rejects_nan_delta(self, gap_graph):
        """NaN slips past ``delta <= 0`` and would bucket every vertex
        by a NaN cast to int64; it is refused like zero."""
        from repro.errors import SystemCapabilityError

        with pytest.raises(SystemCapabilityError, match="delta"):
            delta_stepping(gap_graph, 0, delta=float("nan"))

    def test_tiny_delta_clamps_bucket_keys_before_the_cast(self):
        """At delta = 1e-300 ``dist / delta`` is far past int64: the key
        is clamped as a float, so no cast overflows (which warns and
        wraps keys negative) and the distances are Dijkstra's."""
        import warnings

        from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
        from repro.graph.csr import CSRGraph

        el = generate_kronecker(KroneckerSpec(scale=8, weighted=True))
        g, _ = build_gap_graph(el, directed=False)
        csr = CSRGraph.from_edge_list(el, symmetrize=True)
        for root in np.argsort(csr.out_degrees())[-3:]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got, _, stats = delta_stepping(g, int(root), delta=1e-300)
            assert stats["delta"] == 1e-300
            assert got.tobytes() == sssp_dijkstra(csr, int(root)).tobytes()

    def test_unweighted_graph_rejected(self, kron10):
        from repro.errors import SystemCapabilityError

        unweighted = kron10.copy()
        unweighted.weights = None
        g, _ = build_gap_graph(unweighted, directed=False)
        with pytest.raises(SystemCapabilityError):
            delta_stepping(g, 0)


class TestGaussSeidelPagerank:
    def test_matches_reference(self, gap_graph, kron10_csr):
        want, _ = pagerank(kron10_csr)
        got, _, _ = pagerank_gs(gap_graph)
        assert np.abs(got - want).sum() < 1e-4

    def test_fewest_iterations_claim(self, gap_graph, kron10_csr):
        """Sec. IV-A: 'the GAP Benchmark Suite ... requires the fewest
        iterations.'  GS must not exceed the Jacobi reference count."""
        _, it_ref = pagerank(kron10_csr)
        _, it_gs, _ = pagerank_gs(gap_graph)
        assert it_gs <= it_ref

    def test_mass_conserved(self, gap_graph):
        rank, _, _ = pagerank_gs(gap_graph)
        assert rank.sum() == pytest.approx(1.0, abs=1e-9)


class TestGapSystem:
    def test_counters(self, kron10_dataset):
        s = create_system("gap")
        loaded = s.load(kron10_dataset)
        res = s.run(loaded, "bfs", root=int(kron10_dataset.roots[0]))
        assert res.counters["depth"] >= 1
        assert "bottom_up_steps" in res.counters

    def test_cc_neighbor_rounds_zero_samples_nothing(self, kron10_dataset):
        """0 sampled rounds is a real setting, not "use the default":
        the first pass over the arcs is then the giant-component scan
        (``m + n`` units), and only a negative count is refused."""
        from repro.errors import ConfigError

        s = create_system("gap")
        loaded = s.load(kron10_dataset)
        scan = float(loaded.data.out.n_edges + loaded.n_vertices)
        none = s.run(loaded, "cc", neighbor_rounds=0)
        default = s.run(loaded, "cc")
        assert np.array_equal(none.output["labels"],
                              default.output["labels"])
        assert none.profile.rounds[0].units == scan
        assert default.profile.rounds[0].units != scan
        assert none.iterations != default.iterations
        with pytest.raises(ConfigError, match="neighbor_rounds"):
            s.run(loaded, "cc", neighbor_rounds=-3)


class TestIntegerWeightBuild:
    """Paper Sec. IV-A: the recompile-to-int weight hazard."""

    def test_truncation_changes_sssp(self, kron10_dataset, kron10_csr):
        """Uniform (0,1] weights all truncate to 0: every reachable
        vertex collapses to distance 0 -- exactly the '0.2 cast to 0'
        behaviour the paper warns about."""
        import numpy as np

        from repro.algorithms import sssp_dijkstra

        int_gap = create_system("gap", weight_dtype="int32")
        loaded = int_gap.load(kron10_dataset)
        root = int(kron10_dataset.roots[0])
        res = int_gap.run(loaded, "sssp", root=root)
        ref = sssp_dijkstra(kron10_csr, root)
        reached = np.isfinite(ref)
        assert np.all(res.output["dist"][reached] == 0.0)

    def test_float_build_unaffected(self, kron10_dataset, kron10_csr):
        import numpy as np

        from repro.algorithms import sssp_dijkstra
        from repro.graph.validation import validate_sssp_distances

        gap = create_system("gap", weight_dtype="float64")
        loaded = gap.load(kron10_dataset)
        root = int(kron10_dataset.roots[0])
        res = gap.run(loaded, "sssp", root=root)
        validate_sssp_distances(res.output["dist"],
                                sssp_dijkstra(kron10_csr, root))

    def test_integer_weights_preserved_when_integral(self, dota_dataset):
        """dota-league weights are match counts (integers): the int32
        build is then harmless."""
        import numpy as np

        a = create_system("gap").load(dota_dataset)
        b = create_system("gap", weight_dtype="int32").load(dota_dataset)
        assert np.array_equal(a.data.out.weights, b.data.out.weights)

    def test_rejects_unknown_dtype(self):
        from repro.errors import SystemCapabilityError

        with pytest.raises(SystemCapabilityError):
            create_system("gap", weight_dtype="float16")

