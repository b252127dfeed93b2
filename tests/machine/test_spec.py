"""Tests for the machine description."""

import pytest

from repro.errors import ConfigError
from repro.machine.spec import MachineSpec, haswell_server


def test_paper_testbed():
    """Sec. III-F: 36-core / 72-thread dual Xeon E5-2699 v3, 256 GB."""
    m = haswell_server()
    assert m.n_cores == 36
    assert m.n_threads == 72
    assert m.sockets == 2
    assert m.ram_gb == 256


def test_idle_power_matches_table3():
    """Table III: sleeping-energy / time = 24.74 W in every column."""
    m = haswell_server()
    assert m.idle_pkg_watts == pytest.approx(24.74)


def test_bandwidth_saturates():
    m = haswell_server()
    assert m.bandwidth_gbs(1) == pytest.approx(9.0)
    assert m.bandwidth_gbs(4) == pytest.approx(36.0)
    assert m.bandwidth_gbs(72) == pytest.approx(120.0)


def test_bandwidth_monotone():
    m = haswell_server()
    vals = [m.bandwidth_gbs(n) for n in range(1, 73)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_bandwidth_rejects_zero_threads():
    with pytest.raises(ConfigError):
        haswell_server().bandwidth_gbs(0)


def test_invalid_spec():
    with pytest.raises(ConfigError):
        MachineSpec(sockets=0)
    with pytest.raises(ConfigError):
        MachineSpec(mem_bw_per_thread_gbs=500.0)
