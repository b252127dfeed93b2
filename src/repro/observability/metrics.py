"""Harness metrics: counters, gauges, histograms, Prometheus export.

The paper's methodological complaint is that aggregate numbers hide
mechanism; the metrics here are the aggregate side of the observability
layer (the spans are the mechanism side).  A
:class:`MetricsRegistry` accumulates labelled counters (retries,
quarantines, checkpoint and kernel-cache hits), gauges, and histograms
(per-kernel priced seconds and TEPS), and renders them either as the
Prometheus text exposition format or as a JSON snapshot.

Every metric update the :class:`~repro.observability.tracer.Tracer`
makes is an event, appended to the run's event log and applied to the
live registry by :meth:`MetricsRegistry.apply` -- the one place an event
becomes a registry update.  So a registry can be reconstructed from
``events.jsonl`` alone
(:func:`repro.observability.export.derive_metrics`) -- which is what
``epg metrics <dir>`` does, and why its output matches the snapshot the
suite wrote at completion.
"""

from __future__ import annotations

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "METRIC_HELP", "buckets_for"]

#: Help strings, shared by the live registry and the event-log replay so
#: both render identical ``# HELP`` lines.
METRIC_HELP = {
    "epg_attempts_total": "Cell execution attempts by terminal status.",
    "epg_retries_total": "Retries scheduled after failed attempts.",
    "epg_quarantines_total":
        "Cells quarantined after exhausting their retry budget.",
    "epg_cells_total": "Cells that reached a terminal status.",
    "epg_checkpoint_hits_total":
        "Cells skipped because checkpoint.json already held their outcome.",
    "epg_kernel_cache_hits_total":
        "Kernel executions served from the per-cell result cache.",
    "epg_backoff_seconds_total":
        "Simulated seconds slept in retry backoff.",
    "epg_kernel_seconds": "Priced kernel execution time (simulated s).",
    "epg_kernel_teps": "Traversed edges per second per kernel execution.",
    "epg_cache_hits_total":
        "Artifact-cache lookups served from disk, by artifact kind.",
    "epg_cache_misses_total":
        "Artifact-cache lookups that had to regenerate, by kind.",
    "epg_cache_evictions_total":
        "Artifact-cache entries evicted (LRU GC or corruption).",
    "epg_cache_bytes": "Bytes currently stored in the artifact cache.",
    "epg_kernel_gather_edges":
        "Edges expanded through the shared frontier gather, per kernel.",
    "epg_kernel_scratch_reuse":
        "Kernel scratch buffers served without a fresh allocation.",
    "epg_shard_rounds_total":
        "Supersteps that crossed to the shards, per kernel.",
    "epg_shard_local_rounds_total":
        "Rounds the sharded engine ran in the parent (too few arcs to "
        "pay for a superstep), per kernel.",
    "epg_shard_bytes_total":
        "Bytes exchanged between shards (frontiers plus ring messages).",
    "epg_shard_cut_edges":
        "Arcs crossing shard boundaries under the active partition.",
    "epg_serve_requests_total":
        "Daemon HTTP requests by endpoint and status code.",
    "epg_serve_shed_total":
        "Queries refused before execution, by reason "
        "(queue_full, circuit_open, draining, rate_limited, timeout).",
    "epg_serve_request_seconds": "End-to-end query latency (wall s).",
    "epg_serve_batch_size": "Queries coalesced per kernel sweep.",
    "epg_serve_inflight": "Queries currently admitted.",
    "epg_serve_queue_depth": "Queries queued awaiting a worker.",
    "epg_serve_faults_total": "Injected chaos faults applied, by kind.",
    "epg_serve_worker_quarantines_total":
        "Wedged workers quarantined by the watchdog.",
    "epg_serve_graphs_resident": "Graphs currently resident in RAM.",
    "epg_serve_resident_bytes":
        "Bytes of graph structures currently resident.",
    "epg_serve_recoveries_total":
        "Graphs rematerialized from the manifest at startup.",
    "epg_serve_circuit_open":
        "Circuit-breaker state per (graph, system): 1 open, 0 closed.",
    "epg_serve_circuit_transitions_total":
        "Circuit-breaker state transitions, by new state.",
}

#: Default histogram buckets (log-ish spacing over harness durations).
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)

#: Per-metric bucket overrides, keyed by metric name so the replay path
#: reconstructs histograms identical to the live ones.
HISTOGRAM_BUCKETS = {
    "epg_kernel_seconds": (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
                           60.0, 300.0),
    "epg_kernel_teps": (1e5, 1e6, 1e7, 1e8, 1e9, 1e10),
}


def buckets_for(name: str) -> tuple[float, ...]:
    return HISTOGRAM_BUCKETS.get(name, DEFAULT_BUCKETS)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _fmt_value(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return format(float(v), ".10g")


def _escape_label(v: str) -> str:
    """Escape a label value per the text exposition format: backslash,
    double quote, and line feed."""
    return (v.replace("\\", "\\\\").replace('"', '\\"')
             .replace("\n", "\\n"))


def _escape_help(v: str) -> str:
    """Escape ``# HELP`` text: only backslash and line feed (quotes are
    legal there, unlike in label values)."""
    return v.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: tuple, extra: tuple = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing, labelled counter."""

    kind = "counter"

    def __init__(self, name: str, help_: str = ""):
        self.name = name
        self.help = help_ or METRIC_HELP.get(name, "")
        self.samples: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, /, **labels) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        key = _label_key(labels)
        self.samples[key] = self.samples.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self.samples.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self.samples.values())


class Gauge:
    """A labelled gauge (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help_: str = ""):
        self.name = name
        self.help = help_ or METRIC_HELP.get(name, "")
        self.samples: dict[tuple, float] = {}

    def set(self, value: float, /, **labels) -> None:
        self.samples[_label_key(labels)] = float(value)

    def value(self, **labels) -> float:
        return self.samples.get(_label_key(labels), 0.0)


class Histogram:
    """A labelled histogram with fixed buckets (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_: str = "",
                 buckets: tuple[float, ...] | None = None):
        self.name = name
        self.help = help_ or METRIC_HELP.get(name, "")
        self.buckets = tuple(sorted(buckets or buckets_for(name)))
        #: label key -> [per-bucket counts..., sum, count]
        self.samples: dict[tuple, list] = {}

    def observe(self, value: float, /, **labels) -> None:
        key = _label_key(labels)
        if key not in self.samples:
            self.samples[key] = [[0] * len(self.buckets), 0.0, 0]
        counts, _, _ = self.samples[key]
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                counts[i] += 1
        self.samples[key][1] += float(value)
        self.samples[key][2] += 1

    def count(self, **labels) -> int:
        entry = self.samples.get(_label_key(labels))
        return entry[2] if entry else 0


class MetricsRegistry:
    """A named collection of metrics with Prometheus/JSON rendering."""

    def __init__(self):
        self._metrics: dict[str, object] = {}

    # ------------------------------------------------------------------
    def _get(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, help_: str = "") -> Counter:
        return self._get(name, lambda: Counter(name, help_), "counter")

    def gauge(self, name: str, help_: str = "") -> Gauge:
        return self._get(name, lambda: Gauge(name, help_), "gauge")

    def histogram(self, name: str, help_: str = "",
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        return self._get(
            name, lambda: Histogram(name, help_, buckets), "histogram")

    def get(self, name: str):
        return self._metrics.get(name)

    def apply(self, event: dict) -> None:
        """Apply one ``counter`` / ``observe`` / ``gauge`` event (see
        :class:`~repro.observability.tracer.Tracer`); other event types
        carry no metric and are ignored."""
        kind = event["type"]
        if kind == "counter":
            self.counter(event["name"]).inc(event["inc"], **event["labels"])
        elif kind == "observe":
            self.histogram(event["name"]).observe(event["value"],
                                                  **event["labels"])
        elif kind == "gauge":
            self.gauge(event["name"]).set(event["value"], **event["labels"])

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        out: list[str] = []
        for name in self.names():
            m = self._metrics[name]
            if m.help:
                out.append(f"# HELP {name} {_escape_help(m.help)}")
            out.append(f"# TYPE {name} {m.kind}")
            if m.kind in ("counter", "gauge"):
                for key in sorted(m.samples):
                    out.append(f"{name}{_render_labels(key)} "
                               f"{_fmt_value(m.samples[key])}")
            else:
                for key in sorted(m.samples):
                    counts, total, n = m.samples[key]
                    for edge, c in zip(m.buckets, counts):
                        le = (("le", _fmt_value(edge)),)
                        out.append(f"{name}_bucket"
                                   f"{_render_labels(key, le)} {c}")
                    inf = (("le", "+Inf"),)
                    out.append(f"{name}_bucket"
                               f"{_render_labels(key, inf)} {n}")
                    out.append(f"{name}_sum{_render_labels(key)} "
                               f"{_fmt_value(total)}")
                    out.append(f"{name}_count{_render_labels(key)} {n}")
        return "\n".join(out) + ("\n" if out else "")

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of every metric."""
        snap: dict[str, dict] = {}
        for name in self.names():
            m = self._metrics[name]
            entry: dict = {"type": m.kind, "help": m.help, "samples": []}
            if m.kind in ("counter", "gauge"):
                for key in sorted(m.samples):
                    entry["samples"].append(
                        {"labels": dict(key), "value": m.samples[key]})
            else:
                entry["buckets"] = list(m.buckets)
                for key in sorted(m.samples):
                    counts, total, n = m.samples[key]
                    entry["samples"].append(
                        {"labels": dict(key), "sum": total, "count": n,
                         "bucket_counts": list(counts)})
            snap[name] = entry
        return snap
