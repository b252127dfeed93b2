"""Simulated wall clock with a power-activity timeline.

All times in this reproduction are simulated (see DESIGN.md): kernels do
real work and the cost model prices it.  ``SimulatedClock`` strings those
priced durations into a timeline, tagging each segment with the
instantaneous package/DRAM power drawn while it ran.  The RAPL simulator
(:mod:`repro.power.rapl`) integrates this timeline exactly the way the
real MSR counters integrate physical power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ConfigError

__all__ = ["PowerSegment", "SimulatedClock"]


@dataclass(frozen=True)
class PowerSegment:
    """One interval of constant simulated power draw."""

    t0: float
    t1: float
    pkg_watts: float
    dram_watts: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class SimulatedClock:
    """Monotonic simulated time plus the power timeline behind it."""

    idle_pkg_watts: float
    idle_dram_watts: float
    now: float = 0.0
    segments: list[PowerSegment] = field(default_factory=list)
    #: Observer invoked (with this clock) after every ``advance``; the
    #: tracer uses it to splice per-cell clocks into one suite timeline.
    on_advance: Optional[Callable[["SimulatedClock"], None]] = field(
        default=None, repr=False, compare=False)

    def advance(self, duration_s: float, pkg_watts: float | None = None,
                dram_watts: float | None = None) -> PowerSegment:
        """Advance time by ``duration_s`` drawing the given power.

        ``None`` power means the machine idles (sleep baseline) for the
        interval -- how the harness models gaps between kernels and the
        ``sleep(10)`` baseline program of Table III.
        """
        if duration_s < 0:
            raise ConfigError("cannot advance the clock backwards")
        seg = PowerSegment(
            t0=self.now,
            t1=self.now + duration_s,
            pkg_watts=self.idle_pkg_watts if pkg_watts is None else pkg_watts,
            dram_watts=(self.idle_dram_watts if dram_watts is None
                        else dram_watts),
        )
        self.now = seg.t1
        self.segments.append(seg)
        if self.on_advance is not None:
            self.on_advance(self)
        return seg

    def energy_between(self, t0: float, t1: float) -> tuple[float, float]:
        """Integrate (package, DRAM) joules over ``[t0, t1]``.

        Gaps not covered by any segment are priced at idle power, which
        matches how a real RAPL counter keeps accumulating while the
        process sleeps.
        """
        if t1 < t0:
            raise ConfigError("t1 must be >= t0")
        pkg = 0.0
        dram = 0.0
        covered = 0.0
        for seg in self.segments:
            lo = max(seg.t0, t0)
            hi = min(seg.t1, t1)
            if hi <= lo:
                continue
            pkg += seg.pkg_watts * (hi - lo)
            dram += seg.dram_watts * (hi - lo)
            covered += hi - lo
        gap = (t1 - t0) - covered
        if gap > 0:
            pkg += self.idle_pkg_watts * gap
            dram += self.idle_dram_watts * gap
        return pkg, dram
