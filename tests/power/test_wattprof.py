"""Tests for the WattProf-style trace backend (paper Sec. V)."""

import numpy as np
import pytest

from repro.errors import PowerMeasurementError
from repro.machine.clock import SimulatedClock
from repro.power.papi import power_rapl_end, power_rapl_init, power_rapl_start
from repro.power.wattprof import PowerTrace, WattProfBackend


@pytest.fixture
def clock():
    return SimulatedClock(idle_pkg_watts=24.74, idle_dram_watts=9.6)


def test_trace_shape_and_rate(clock):
    wp = WattProfBackend(clock, sample_hz=1000.0)
    wp.start()
    clock.advance(0.050, 80.0, 15.0)
    trace = wp.stop()
    assert trace.timestamps_s.size == 50
    assert np.allclose(trace.pkg_watts, 80.0)
    assert trace.duration_s == pytest.approx(0.050)


def test_energy_agrees_with_rapl_counters(clock):
    """Both backends share the interface and must agree on energy."""
    wp = WattProfBackend(clock, sample_hz=2000.0)
    ps = power_rapl_init(clock)
    power_rapl_start(ps)
    wp.start()
    clock.advance(0.030, 72.38, 16.5)
    clock.advance(0.010)            # idle gap inside the region
    clock.advance(0.020, 97.17, 18.5)
    trace = wp.stop()
    power_rapl_end(ps)
    # Riemann sum over the samples.
    pkg_j = trace.pkg_watts.sum() / trace.sample_hz
    dram_j = trace.dram_watts.sum() / trace.sample_hz
    assert pkg_j == pytest.approx(ps.package_joules, rel=1e-3)
    assert dram_j == pytest.approx(ps.dram_joules, rel=1e-3)


def test_trace_resolves_phases(clock):
    """The whole point of fine-grained tracing: the trace shows the
    power steps that the two-counter RAPL difference averages away."""
    wp = WattProfBackend(clock, sample_hz=1000.0)
    wp.start()
    clock.advance(0.020, 100.0, 18.0)   # hot kernel
    clock.advance(0.020, 30.0, 10.0)    # cool phase
    trace = wp.stop()
    assert trace.pkg_watts.max() == pytest.approx(100.0)
    assert trace.pkg_watts.min() == pytest.approx(30.0)
    # A RAPL-style average would sit in the middle.
    assert 30.0 < trace.pkg_watts.mean() < 100.0


def test_stop_without_start(clock):
    with pytest.raises(PowerMeasurementError):
        WattProfBackend(clock).stop()


def test_invalid_rate(clock):
    with pytest.raises(PowerMeasurementError):
        WattProfBackend(clock, sample_hz=0)


def test_csv_roundtrip(clock, tmp_path):
    wp = WattProfBackend(clock, sample_hz=500.0)
    wp.start()
    clock.advance(0.01, 50.0, 12.0)
    trace = wp.stop()
    p = trace.to_csv(tmp_path / "trace.csv")
    body = np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
    assert body.shape == (trace.timestamps_s.size, 3)
    assert np.allclose(body[:, 1], trace.pkg_watts, atol=1e-5)


def test_svg_render(clock, tmp_path):
    from xml.etree import ElementTree

    wp = WattProfBackend(clock, sample_hz=200.0)
    wp.start()
    clock.advance(0.05, 60.0, 12.0)
    trace = wp.stop()
    p = trace.to_svg(tmp_path / "trace.svg")
    ElementTree.parse(p)


def test_trace_through_a_real_run(kron10_dataset, tmp_path):
    """Trace one GAP BFS execution end to end."""
    from repro.machine.spec import haswell_server
    from repro.power.energy import instantaneous_power
    from repro.systems import create_system

    machine = haswell_server()
    clock = SimulatedClock(idle_pkg_watts=machine.idle_pkg_watts,
                           idle_dram_watts=machine.idle_dram_watts)
    system = create_system("gap", n_threads=32)
    loaded = system.load(kron10_dataset)
    result = system.run(loaded, "bfs", root=int(kron10_dataset.roots[0]))
    pkg_w, dram_w = instantaneous_power(machine, system.power, 32)

    wp = WattProfBackend(clock, sample_hz=100000.0)
    wp.start()
    clock.advance(result.time_s, pkg_w, dram_w)
    trace = wp.stop()
    assert trace.duration_s == pytest.approx(result.time_s, rel=0.05)
    assert trace.pkg_watts.mean() == pytest.approx(pkg_w, rel=0.02)
