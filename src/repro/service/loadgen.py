"""``epg loadgen``: drive the daemon, account for every response.

A seeded closed- or open-loop client fleet.  Closed loop: each client
fires its next query the moment the previous one resolves (throughput
follows capacity).  Open loop: arrivals are paced at a target rate
regardless of completions (the overload shape that exercises
shedding).  The report is the serving acceptance artifact: per-status
counts, latency percentiles, and the clean/dirty verdict -- *dirty*
means a response outside the well-formed set (any 5xx that is not a
503, or a transport error), which is exactly what the chaos soak must
never see.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from repro.errors import ServiceError
from repro.ioutil import atomic_write_json
from repro.logging_util import get_logger
from repro.systems.base import ROOTED_ALGORITHMS

__all__ = ["LoadGenerator", "LoadReport"]

#: Statuses a healthy chaotic run is allowed to produce.
WELL_FORMED = frozenset({200, 400, 404, 429, 503})


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[idx]


@dataclass
class LoadReport:
    """Everything one loadgen run observed."""

    duration_s: float = 0.0
    requests: int = 0
    status_counts: dict = field(default_factory=dict)
    transport_errors: int = 0
    latencies_s: list = field(default_factory=list)
    shed_reasons: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def record(self, status: int, latency_s: float,
               reason: str | None) -> None:
        self.requests += 1
        key = str(status)
        self.status_counts[key] = self.status_counts.get(key, 0) + 1
        self.latencies_s.append(latency_s)
        if reason:
            self.shed_reasons[reason] = \
                self.shed_reasons.get(reason, 0) + 1

    def count(self, status: int) -> int:
        return self.status_counts.get(str(status), 0)

    @property
    def dirty_responses(self) -> int:
        """Responses outside the well-formed set, plus transport
        errors -- the number the chaos soak requires to be zero."""
        bad = sum(n for s, n in self.status_counts.items()
                  if int(s) not in WELL_FORMED)
        return bad + self.transport_errors

    def to_dict(self) -> dict:
        lat = sorted(self.latencies_s)
        return {
            "duration_s": round(self.duration_s, 3),
            "requests": self.requests,
            "status_counts": dict(sorted(self.status_counts.items())),
            "transport_errors": self.transport_errors,
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "achieved_rps": round(
                self.requests / self.duration_s, 2
            ) if self.duration_s > 0 else 0.0,
            "latency_s": {
                "p50": round(_percentile(lat, 0.50), 6),
                "p95": round(_percentile(lat, 0.95), 6),
                "p99": round(_percentile(lat, 0.99), 6),
                "max": round(lat[-1], 6) if lat else 0.0,
            },
            "dirty_responses": self.dirty_responses,
        }

    def summary(self, dash_url: str | None = None) -> str:
        """Human-readable report; ``dash_url`` (an ``epg dash`` base
        URL) appends a hint line pointing at the live service page."""
        d = self.to_dict()
        lines = [f"requests {d['requests']} in {d['duration_s']}s "
                 f"({d['achieved_rps']} rps)"]
        for status, n in d["status_counts"].items():
            lines.append(f"  {status}: {n}")
        if self.transport_errors:
            lines.append(f"  transport errors: "
                         f"{self.transport_errors}")
        if d["shed_reasons"]:
            reasons = ", ".join(f"{k}={v}" for k, v
                                in d["shed_reasons"].items())
            lines.append(f"  shed: {reasons}")
        p = d["latency_s"]
        lines.append(f"  latency p50={p['p50']}s p95={p['p95']}s "
                     f"p99={p['p99']}s")
        lines.append(f"  dirty responses: {d['dirty_responses']}")
        if dash_url:
            lines.append(f"  watch live: {dash_url.rstrip('/')}/service")
        return "\n".join(lines)


class LoadGenerator:
    """A seeded client fleet against one daemon."""

    def __init__(self, url: str, *, duration_s: float = 10.0,
                 clients: int = 4, mode: str = "closed",
                 rps: float | None = None, seed: int = 20170402,
                 systems: tuple[str, ...] = ("gap", "graph500"),
                 algorithms: tuple[str, ...] = ("bfs",),
                 n_threads: int = 32,
                 request_timeout_s: float = 30.0):
        if mode not in ("closed", "open"):
            raise ServiceError(f"mode must be closed|open, not {mode!r}")
        if mode == "open" and (rps is None or rps <= 0):
            raise ServiceError("open-loop mode needs --rps > 0")
        self.url = url.rstrip("/")
        self.duration_s = float(duration_s)
        self.clients = int(clients)
        self.mode = mode
        self.rps = rps
        self.seed = int(seed)
        self.systems = tuple(systems)
        self.algorithms = tuple(algorithms)
        self.n_threads = int(n_threads)
        self.request_timeout_s = float(request_timeout_s)
        self._log = get_logger("repro.service.loadgen")

    # ------------------------------------------------------------------
    def _get_json(self, path: str) -> dict:
        try:
            with urllib.request.urlopen(
                    self.url + path,
                    timeout=self.request_timeout_s) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ServiceError(
                f"cannot reach daemon at {self.url}: {exc}") from exc

    def discover_graphs(self) -> list[dict]:
        graphs = self._get_json("/graphs").get("graphs", [])
        if not graphs:
            raise ServiceError(f"daemon at {self.url} serves no graphs")
        return graphs

    def _query_once(self, payload: dict, client_id: str
                    ) -> tuple[int, str | None]:
        """(status, shed_reason) for one POST /query."""
        req = urllib.request.Request(
            self.url + "/query",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "X-Client": client_id},
            method="POST")
        try:
            with urllib.request.urlopen(
                    req, timeout=self.request_timeout_s) as resp:
                resp.read()
                return resp.status, None
        except urllib.error.HTTPError as exc:
            try:
                reason = json.loads(exc.read().decode("utf-8")
                                    ).get("error")
            except Exception:
                reason = None
            return exc.code, reason

    # ------------------------------------------------------------------
    def run(self) -> LoadReport:
        graphs = self.discover_graphs()
        report = LoadReport()
        lock = threading.Lock()
        t_start = time.monotonic()
        deadline = t_start + self.duration_s

        def client_loop(idx: int) -> None:
            rng = Random((self.seed << 8) ^ idx)
            client_id = f"loadgen-{idx}"
            # Open loop: this client owns every k-th arrival slot.
            period = (self.clients / self.rps
                      if self.mode == "open" else 0.0)
            next_fire = t_start + (idx / self.rps
                                   if self.mode == "open" else 0.0)
            while True:
                now = time.monotonic()
                if now >= deadline:
                    return
                if self.mode == "open":
                    if now < next_fire:
                        time.sleep(min(next_fire - now,
                                       deadline - now))
                        continue
                    next_fire += period
                graph = rng.choice(graphs)
                algorithm = rng.choice(self.algorithms)
                payload = {
                    "graph": graph["name"],
                    "system": rng.choice(self.systems),
                    "algorithm": algorithm,
                    "n_threads": self.n_threads,
                }
                if algorithm in ROOTED_ALGORITHMS:
                    payload["root"] = rng.randrange(
                        max(graph["n_vertices"], 1))
                t0 = time.monotonic()
                try:
                    status, reason = self._query_once(payload,
                                                      client_id)
                    with lock:
                        report.record(status, time.monotonic() - t0,
                                      reason)
                except (urllib.error.URLError, OSError):
                    with lock:
                        report.requests += 1
                        report.transport_errors += 1

        threads = [threading.Thread(target=client_loop, args=(i,),
                                    name=f"loadgen-{i}", daemon=True)
                   for i in range(self.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        report.duration_s = time.monotonic() - t_start
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def write_report(report: LoadReport, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, report.to_dict())
        return path
