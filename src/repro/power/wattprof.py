"""WattProf-style fine-grained power tracing.

Paper Sec. V: "while our current implementation supports measurements
based on PAPI's interface to RAPL, which is only available on Intel
platforms, the interface is simple and easy to adapt to other platforms
... In particular, fine-grained measurements provided through
potentially available custom hardware [WattProf] can be enabled through
the same interface."

This module is that adaptation: a second power backend exposing the
same ``power_rapl_*``-shaped protocol (init/start/end) but sampling the
clock's power timeline at a fixed rate into a *trace* -- per-sample
(timestamp, package W, DRAM W) tuples -- rather than two counter
snapshots, the way WattProf's dedicated acquisition board streams
channels at kHz rates.  Traces integrate to the same energy the RAPL
counters report (asserted in the test suite), and render to CSV or an
SVG time-series chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import PowerMeasurementError
from repro.machine.clock import SimulatedClock

__all__ = ["PowerTrace", "WattProfBackend"]

#: WattProf samples at kHz rates; default 1 kHz.
DEFAULT_SAMPLE_HZ = 1000.0


@dataclass
class PowerTrace:
    """A fixed-rate power trace over one measured region."""

    timestamps_s: np.ndarray
    pkg_watts: np.ndarray
    dram_watts: np.ndarray
    sample_hz: float

    @property
    def duration_s(self) -> float:
        if self.timestamps_s.size == 0:
            return 0.0
        return float(self.timestamps_s[-1] - self.timestamps_s[0]
                     + 1.0 / self.sample_hz)

    def to_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = np.column_stack([self.timestamps_s, self.pkg_watts,
                                self.dram_watts])
        header = "t_s,pkg_w,dram_w"
        np.savetxt(path, cols, fmt="%.6f", delimiter=",",
                   header=header, comments="")
        return path

    @classmethod
    def from_csv(cls, path: str | Path) -> "PowerTrace":
        """Read a trace :meth:`to_csv` wrote.  The rate is the median
        sample spacing (1 kHz for a one-sample trace)."""
        path = Path(path)
        try:
            rows = [row for row in
                    path.read_text(encoding="utf-8").splitlines()[1:]
                    if row.strip()]
            if not rows:
                raise ValueError("no samples")
            body = np.loadtxt(rows, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise PowerMeasurementError(
                f"{path}: not a power trace CSV ({exc})") from None
        if body.shape[1] != 3:
            raise PowerMeasurementError(
                f"{path}: not a power trace CSV (want t_s,pkg_w,dram_w)")
        ts = body[:, 0]
        spacing = float(np.median(np.diff(ts))) if ts.size > 1 else 1e-3
        if not spacing > 0:
            raise PowerMeasurementError(
                f"{path}: not a power trace CSV (timestamps do not "
                f"increase)")
        return cls(timestamps_s=ts, pkg_watts=body[:, 1],
                   dram_watts=body[:, 2], sample_hz=1.0 / spacing)

    def to_svg(self, path: str | Path, title: str = "Power trace"
               ) -> Path:
        from repro.viz.charts import line_chart

        xs = self.timestamps_s.tolist()
        chart = line_chart(
            xs, {"package": self.pkg_watts.tolist(),
                 "dram": self.dram_watts.tolist()},
            title, "time (s)", "power (W)")
        return chart.write(path)


class WattProfBackend:
    """Trace-producing power meter over the simulated clock.

    Protocol mirrors the Fig 10 RAPL shim: construct (init), ``start``,
    run the region, ``stop`` -> :class:`PowerTrace`.
    """

    def __init__(self, clock: SimulatedClock,
                 sample_hz: float = DEFAULT_SAMPLE_HZ):
        if sample_hz <= 0:
            raise PowerMeasurementError("sample rate must be positive")
        self._clock = clock
        self.sample_hz = float(sample_hz)
        self._start_t: float | None = None

    def start(self) -> None:
        self._start_t = self._clock.now

    def stop(self) -> PowerTrace:
        if self._start_t is None:
            raise PowerMeasurementError("stop() before start()")
        t0, t1 = self._start_t, self._clock.now
        self._start_t = None
        dt = 1.0 / self.sample_hz
        n = max(int(round((t1 - t0) * self.sample_hz)), 1)
        stamps = t0 + dt * np.arange(n)
        pkg = np.empty(n)
        dram = np.empty(n)
        # Sample the timeline: each sample integrates its dt window so
        # the trace's Riemann sum equals the counters' energy.
        for i, s in enumerate(stamps):
            e_pkg, e_dram = self._clock.energy_between(
                s, min(s + dt, max(t1, s + dt)))
            pkg[i] = e_pkg / dt
            dram[i] = e_dram / dt
        return PowerTrace(timestamps_s=stamps, pkg_watts=pkg,
                          dram_watts=dram, sample_hz=self.sample_hz)
