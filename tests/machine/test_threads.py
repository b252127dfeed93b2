"""Tests for the work-span thread-scaling model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.machine.spec import haswell_server
from repro.machine.threads import (
    CostParams,
    ThreadModel,
    WorkProfile,
    WorkRound,
)


@pytest.fixture
def tm():
    return ThreadModel(haswell_server())


def _costs(**kw):
    defaults = dict(sec_per_unit=1e-8, startup_s=0.0, barrier_s=0.0,
                    imbalance=0.0, contention=0.0, smt_yield=0.5)
    defaults.update(kw)
    return CostParams(**defaults)


def _profile(units=1e6, rounds=1, skew=0.0):
    p = WorkProfile()
    for _ in range(rounds):
        p.add_round(units=units / rounds, skew=skew)
    return p


class TestWorkProfile:
    def test_totals(self):
        p = WorkProfile()
        p.add_round(100, memory_bytes=800)
        p.add_round(50)
        p.serial_units = 10
        assert p.total_units == 160
        assert len(p.rounds) == 2
        assert p.total_bytes == 800

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            WorkRound(units=-1)

    def test_skew_clamped(self):
        assert WorkRound(units=1, skew=7.0).skew == 1.0

    def test_merge(self):
        a = _profile(rounds=2)
        b = _profile(rounds=3)
        assert len(a.merged(b).rounds) == 5


class TestCostParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            CostParams(sec_per_unit=0.0)
        with pytest.raises(ConfigError):
            CostParams(sec_per_unit=1e-9, smt_yield=1.5)


class TestEffectiveParallelism:
    def test_linear_up_to_cores(self, tm):
        assert tm.effective_parallelism(36, 0.4) == 36

    def test_smt_discounted(self, tm):
        assert tm.effective_parallelism(72, 0.5) == 36 + 0.5 * 36

    def test_serial(self, tm):
        assert tm.effective_parallelism(1, 0.5) == 1


class TestSimulate:
    def test_serial_time_is_work_times_rate(self, tm):
        sim = tm.simulate(_profile(units=1e6), _costs(), 1)
        assert sim.time_s == pytest.approx(1e-2)

    def test_ideal_speedup_without_overheads(self, tm):
        p = _profile(units=1e9)  # large: stay compute-bound
        t1 = tm.simulate(p, _costs(), 1).time_s
        t32 = tm.simulate(p, _costs(), 32).time_s
        assert t1 / t32 == pytest.approx(32, rel=0.01)

    def test_imbalance_reduces_speedup(self, tm):
        p = _profile(units=1e9, skew=0.5)
        fair = tm.simulate(p, _costs(), 32).time_s
        skewed = tm.simulate(p, _costs(imbalance=0.5), 32).time_s
        assert skewed > fair

    def test_contention_dip_at_two_threads(self, tm):
        """The Graph500 effect (Fig 6): slower on 2 threads than 1."""
        p = _profile(units=1e8)
        costs = _costs(contention=1.35, contention_decay=2.0)
        t1 = tm.simulate(p, costs, 1).time_s
        t2 = tm.simulate(p, costs, 2).time_s
        assert t2 > t1                       # speedup < 1
        t8 = tm.simulate(p, costs, 8).time_s
        assert t8 < t1                       # and it recovers

    def test_memory_roofline_binds(self, tm):
        """A byte-heavy profile is priced by bandwidth, not compute."""
        p = WorkProfile()
        p.add_round(units=1e6, memory_bytes=9e9)  # 1 GB/unit-ish
        sim = tm.simulate(p, _costs(), 1)
        assert sim.time_s == pytest.approx(1.0)  # 9 GB @ 9 GB/s

    def test_barrier_cost_scales_with_rounds(self, tm):
        costs = _costs(barrier_s=1e-4)
        few = tm.simulate(_profile(units=1e6, rounds=1), costs, 32).time_s
        many = tm.simulate(_profile(units=1e6, rounds=50), costs, 32).time_s
        assert many > few

    def test_startup_additive(self, tm):
        base = tm.simulate(_profile(), _costs(), 4).time_s
        with_start = tm.simulate(_profile(), _costs(startup_s=1.0), 4).time_s
        assert with_start == pytest.approx(base + 1.0)

    def test_serial_units_not_parallelized(self, tm):
        p = WorkProfile(serial_units=1e6)
        t1 = tm.simulate(p, _costs(), 1).time_s
        t64 = tm.simulate(p, _costs(), 64).time_s
        assert t1 == pytest.approx(t64)

    def test_breakdown_sums(self, tm):
        p = _profile(units=1e8, rounds=4)
        sim = tm.simulate(p, _costs(startup_s=0.1, barrier_s=1e-3), 16)
        assert sim.time_s >= sim.startup_s
        assert sim.n_threads == 16


@given(n=st.integers(1, 72))
@settings(max_examples=30, deadline=None)
def test_speedup_bounded_by_threads(n):
    """T1/Tn <= n for contention-free, imbalance-free profiles."""
    tm = ThreadModel(haswell_server())
    p = WorkProfile()
    p.add_round(units=1e8)
    costs = _costs()
    t1 = tm.simulate(p, costs, 1).time_s
    tn = tm.simulate(p, costs, n).time_s
    assert t1 / tn <= n + 1e-9


@given(n=st.integers(1, 72), imb=st.floats(0, 1), cont=st.floats(0, 2),
       skew=st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_time_always_positive(n, imb, cont, skew):
    tm = ThreadModel(haswell_server())
    p = WorkProfile()
    p.add_round(units=1e6, skew=skew)
    costs = _costs(imbalance=imb, contention=cont)
    assert tm.simulate(p, costs, n).time_s > 0
