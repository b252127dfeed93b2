"""Tests of the calibration constants and the anchor solver."""

import pytest

from repro.errors import ConfigError
from repro.machine.spec import haswell_server
from repro.machine.threads import ThreadModel, WorkProfile
from repro.systems import calibration as cal


class TestAnchorsReproduced:
    @pytest.mark.parametrize("system,algo,anchor_time", [
        ("gap", "bfs", 0.01636),          # Table III, exact
        ("graph500", "bfs", 0.01884),     # Table III, exact
        ("graphbig", "bfs", 1.600),       # Table III, exact
        ("graphmat", "bfs", 1.424),       # Table III, exact
    ])
    def test_model_prices_anchor_workload_at_anchor_time(
            self, system, algo, anchor_time):
        """Feeding the anchor's unit count back through the model at 32
        threads must return the paper's measured time (minus startup)."""
        machine = haswell_server()
        costs = cal.cost_params(system, algo, machine)
        anchor = cal._ANCHORS[system][algo]
        profile = WorkProfile()
        profile.add_round(units=anchor.units, skew=anchor.skew)
        sim = ThreadModel(machine).simulate(profile, costs, 32)
        assert sim.time_s - costs.startup_s == pytest.approx(
            anchor_time, rel=0.02)

    def test_power_anchors_table3(self):
        assert cal.power_params("gap").pkg_watts_32t == 72.38
        assert cal.power_params("graph500").pkg_watts_32t == 97.17
        assert cal.power_params("graphbig").pkg_watts_32t == 78.01
        assert cal.power_params("graphmat").pkg_watts_32t == 70.12

    def test_graphmat_lowest_dram(self):
        """Fig 9: GraphMat exhibits the lowest RAM power."""
        gm = cal.power_params("graphmat").dram_watts_32t
        for other in ("gap", "graph500", "graphbig", "powergraph"):
            assert gm < cal.power_params(other).dram_watts_32t


class TestShapes:
    def test_graph500_most_noise_sensitive(self):
        g5 = cal.noise_sensitivity("graph500")
        for other in ("gap", "graphbig", "graphmat", "powergraph"):
            assert g5 > cal.noise_sensitivity(other)

    def test_graph500_has_contention_dip(self):
        c = cal.cost_params("graph500", "bfs")
        tm = ThreadModel(haswell_server())
        assert tm.contention_factor(2, c) > 2.0  # forces T2 > T1

    def test_graphbig_scales_worst(self):
        """Figs 5-6: GraphBIG flattest."""
        gb = cal.cost_params("graphbig", "bfs")
        for other in ("gap", "graph500", "graphmat"):
            o = cal.cost_params(other, "bfs")
            assert gb.imbalance > o.imbalance
            assert gb.smt_yield < o.smt_yield

    def test_graphmat_best_smt_yield(self):
        """Fig 5: GraphMat slightly beats GAP at 72 threads."""
        assert cal.cost_params("graphmat", "bfs").smt_yield > \
            cal.cost_params("gap", "bfs").smt_yield

    def test_powergraph_largest_startup(self):
        pg = cal.cost_params("powergraph", "sssp").startup_s
        for other in ("gap", "graphbig", "graphmat"):
            assert pg > cal.cost_params(other, "sssp").startup_s


class TestLookups:
    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            cal.cost_params("ligra", "bfs")

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            cal.cost_params("graph500", "pagerank")  # BFS-only system

    def test_build_params_exist_for_all(self):
        for s in ("gap", "graph500", "graphbig", "graphmat",
                  "powergraph"):
            assert cal.build_params(s).sec_per_unit > 0

    def test_read_rates(self):
        assert cal.read_rate_mbs("mtxbin") == pytest.approx(230.0)
        assert cal.read_rate_mbs("wel") < cal.read_rate_mbs("g500")
        assert cal.read_rate_mbs("graphbig") < cal.read_rate_mbs("tsv")
        # No homogenized file has these.
        for key in ("el", "sg", "wsg", "csv"):
            with pytest.raises(ConfigError):
                cal.read_rate_mbs(key)
        with pytest.raises(ConfigError):
            cal.read_rate_mbs("parquet")

    def test_graphmat_binary_rate_matches_log_excerpt(self):
        """Table I excerpt: 610 MB of dota records read in 2.65 s."""
        rate = cal.read_rate_mbs("mtxbin")
        dota_bytes = 50_870_313 * 12  # 12-byte records
        assert dota_bytes / (rate * 1e6) == pytest.approx(2.65, rel=0.01)
