"""Thread-safe telemetry facade over the single-threaded tracer.

The :class:`~repro.observability.tracer.Tracer` assumes one thread
(its span stack and sim clock are unguarded); the daemon has many.
:class:`ServiceTelemetry` serializes *every* tracer touch behind one
lock and only uses the stack-free entry points (``span_complete`` and
the metric mirrors), so the event log keeps its monotonic simulated
timeline and the live registry its consistency.
"""

from __future__ import annotations

import threading

from repro.observability import Tracer

__all__ = ["ServiceTelemetry"]


class ServiceTelemetry:
    """Locked counters/gauges/histograms + completed request spans."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    # ------------------------------------------------------------------
    # A disabled tracer drops metric calls (its null-tracer contract);
    # the daemon's /metrics must work untraced, so fall back to the
    # registry directly -- tracing then only adds the event log.
    def counter(self, name: str, inc: float = 1.0, **labels) -> None:
        with self._lock:
            if self.tracer.enabled:
                self.tracer.counter(name, inc, **labels)
            else:
                self.tracer.metrics.counter(name).inc(inc, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        from repro.observability.metrics import buckets_for

        with self._lock:
            if self.tracer.enabled:
                self.tracer.observe(name, value, **labels)
            else:
                self.tracer.metrics.histogram(
                    name, buckets=buckets_for(name)).observe(
                    value, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        with self._lock:
            if self.tracer.enabled:
                self.tracer.gauge(name, value, **labels)
            else:
                self.tracer.metrics.gauge(name).set(value, **labels)

    def request_span(self, name: str, *, duration_s: float,
                     **attrs) -> None:
        with self._lock:
            self.tracer.span_complete(name, "request",
                                      duration_s=duration_s, **attrs)

    # ------------------------------------------------------------------
    def prometheus(self) -> str:
        with self._lock:
            return self.tracer.metrics.to_prometheus()

    def close(self) -> None:
        with self._lock:
            self.tracer.close()
