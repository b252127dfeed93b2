"""Tests for the simulated clock / power timeline."""

import pytest

from repro.errors import ConfigError
from repro.machine.clock import SimulatedClock


@pytest.fixture
def clock():
    return SimulatedClock(idle_pkg_watts=25.0, idle_dram_watts=10.0)


def test_advance_moves_time(clock):
    clock.advance(1.5, 50.0, 12.0)
    assert clock.now == pytest.approx(1.5)


def test_idle_defaults(clock):
    seg = clock.advance(2.0)
    assert seg.pkg_watts == 25.0
    assert seg.dram_watts == 10.0


def test_negative_advance_rejected(clock):
    with pytest.raises(ConfigError):
        clock.advance(-0.1)


def test_energy_integration(clock):
    clock.advance(1.0, 100.0, 20.0)
    clock.advance(1.0, 50.0, 10.0)
    pkg, dram = clock.energy_between(0.0, 2.0)
    assert pkg == pytest.approx(150.0)
    assert dram == pytest.approx(30.0)


def test_partial_overlap(clock):
    clock.advance(2.0, 100.0, 20.0)
    pkg, _ = clock.energy_between(0.5, 1.5)
    assert pkg == pytest.approx(100.0)


def test_gap_priced_at_idle(clock):
    clock.advance(1.0, 100.0, 20.0)
    # Window extends 1 s past the last segment: idle power fills it.
    pkg, dram = clock.energy_between(0.0, 2.0)
    assert pkg == pytest.approx(100.0 + 25.0)
    assert dram == pytest.approx(20.0 + 10.0)


def test_segment_energy(clock):
    seg = clock.advance(0.5, 80.0, 16.0)
    pkg, dram = clock.energy_between(seg.t0, seg.t1)
    assert pkg == pytest.approx(40.0)
    assert dram == pytest.approx(8.0)


def test_reversed_window_rejected(clock):
    with pytest.raises(ConfigError):
        clock.energy_between(1.0, 0.5)
