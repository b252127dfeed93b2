"""``epg serve``: the fault-tolerant query daemon.

A stdlib-only HTTP/JSON front end over the reproduction's kernels:

* ``GET  /healthz``  -- liveness (200 while the process runs);
* ``GET  /readyz``   -- readiness (503 until started, and while
  draining);
* ``GET  /graphs``   -- the served roster;
* ``GET  /stats``    -- admission/breaker/residency counters;
* ``GET  /metrics``  -- Prometheus text exposition;
* ``POST /query``    -- ``{"graph", "system", "algorithm", "root"?,
  "n_threads"?}`` -> a result summary.

Failure discipline: a query is *shed* (503 + ``Retry-After``) the
moment the daemon knows it cannot serve it well -- queue full, circuit
open, draining, past deadline -- and *rate-limited* (429) per client.
Nothing a client sends can produce a 500: handler errors degrade to
well-formed error responses.  SIGTERM starts a graceful drain: stop
admitting, finish in-flight queries, persist ``served.json``, exit 0.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler
from pathlib import Path

from repro.errors import ReproError, ServiceError
from repro.httputil import (FrontEndServer, bind, serve_until_stopped,
                            write_response)
from repro.logging_util import get_logger
from repro.observability import Tracer
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.service.admission import AdmissionController, RateLimiter
from repro.service.batching import BatchingExecutor, Job
from repro.service.breaker import CircuitBreaker
from repro.service.graphs import ResidentGraphManager
from repro.service.telemetry import ServiceTelemetry
from repro.service.workers import WorkerPool
from repro.systems.base import ALGORITHMS, ROOTED_ALGORITHMS

__all__ = ["QueryDaemon", "ServeConfig", "STATS_SCHEMA_VERSION"]

#: Version stamped into every ``/stats`` payload; bump on any change
#: to the payload's shape.  External consumers (the ``epg dash``
#: service page, scrapers) key on it to reject daemons they do not
#: understand instead of rendering garbage.
STATS_SCHEMA_VERSION = 1

#: The fixed GET surface; anything else is labelled ``other`` in
#: metrics so arbitrary 404 paths cannot inflate label cardinality.
_GET_ENDPOINTS = frozenset(
    {"/healthz", "/readyz", "/graphs", "/stats", "/metrics"})


@dataclass
class ServeConfig:
    """Everything ``epg serve`` needs."""

    data_dir: Path
    graphs: tuple[str, ...] = ()
    host: str = "127.0.0.1"
    port: int = 8750
    workers: int = 2
    #: Shards per kernel execution (``--shards``): forwarded to every
    #: resident system so queries split across cores; outputs stay
    #: bit-identical to serial (see :mod:`repro.shard`).
    shards: int = 1
    max_queue: int = 16
    max_inflight: int = 4
    request_timeout_s: float = 10.0
    #: Wedge deadline before the watchdog quarantines a worker.
    wedge_timeout_s: float | None = None
    breaker_failures: int = 3
    #: Longest a same-key group waits to coalesce *while every worker
    #: is busy*; with a worker idle a query is dispatched at once.
    batch_window_s: float = 0.01
    max_batch: int = 32
    max_resident_bytes: int | None = None
    max_rps_per_client: float | None = None
    fault_spec: str | None = None
    seed: int = 20170402
    cache_dir: Path | None = None
    trace_dir: Path | None = None
    drain_grace_s: float = 15.0
    breaker_policy: RetryPolicy = field(default_factory=RetryPolicy)

    def resolved_wedge_timeout_s(self) -> float:
        if self.wedge_timeout_s is not None:
            return self.wedge_timeout_s
        return max(self.request_timeout_s / 2, 0.5)


class QueryDaemon:
    """Owns every serving subsystem; drives the HTTP server."""

    def __init__(self, config: ServeConfig):
        self.config = config
        tracer = (Tracer(config.trace_dir)
                  if config.trace_dir is not None else Tracer())
        self.telemetry = ServiceTelemetry(tracer)
        cache = None
        if config.cache_dir is not None:
            from repro.cache import ArtifactCache

            cache = ArtifactCache(config.cache_dir)
        self.manager = ResidentGraphManager(
            config.data_dir,
            max_resident_bytes=config.max_resident_bytes,
            cache=cache, seed=config.seed, telemetry=self.telemetry,
            shards=config.shards)
        self.admission = AdmissionController(
            config.max_queue, config.max_inflight,
            telemetry=self.telemetry)
        self.limiter = RateLimiter(config.max_rps_per_client)
        self.injector = (FaultInjector(config.seed, config.fault_spec)
                         if config.fault_spec else None)
        self.pool = WorkerPool(
            config.workers,
            wedge_timeout_s=config.resolved_wedge_timeout_s(),
            telemetry=self.telemetry)
        self.batcher = BatchingExecutor(
            self.pool, self.manager, self.telemetry,
            window_s=config.batch_window_s,
            max_batch=config.max_batch)
        self.breakers: dict[tuple, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._fault_seq: dict[tuple, int] = {}
        self._seq_lock = threading.Lock()
        self.ready = False
        self.draining = False
        self.recovered = 0
        self._drained = False
        self._drain_lock = threading.Lock()
        self._shutdown = threading.Event()
        self._server: FrontEndServer | None = None
        self._log = get_logger("repro.service")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover the roster, materialize requested graphs, start the
        pool -- then flip ready."""
        self.recovered = self.manager.recover()
        for spec in self.config.graphs:
            self.manager.add_graph(spec)
        if not self.manager.datasets:
            raise ServiceError(
                "nothing to serve: pass --graphs (e.g. kron:10) or "
                "start in a data dir with a served.json manifest")
        self.pool.start()
        self.batcher.start()
        self.ready = True
        self._log.info("serving %d graph(s): %s",
                       len(self.manager.datasets),
                       ", ".join(sorted(self.manager.datasets)))

    def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish what's admitted,
        persist the manifest.  One-shot; sets ``draining`` first so
        new queries are refused immediately."""
        with self._drain_lock:
            if self._drained:
                return
            self._drained = True
        self.draining = True
        self._log.info("draining: waiting for in-flight queries")
        self.batcher.stop()
        deadline = time.monotonic() + self.config.drain_grace_s
        while not self.admission.idle() \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        self.pool.stop()
        self.manager.close()
        self.manager.manifest.save()
        self.telemetry.close()
        self._log.info("drain complete")

    def request_shutdown(self) -> None:
        self._shutdown.set()

    # ------------------------------------------------------------------
    # The query path
    # ------------------------------------------------------------------
    def _breaker(self, graph: str, system: str) -> CircuitBreaker:
        key = (graph, system)
        with self._breaker_lock:
            breaker = self.breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    key, self.config.breaker_failures,
                    self.config.breaker_policy, seed=self.config.seed,
                    telemetry=self.telemetry)
                self.breakers[key] = breaker
            return breaker

    def _next_fault(self, system: str, algorithm: str,
                    n_threads: int):
        """Per-cell request sequence drives the injector's ``attempt``
        axis, so ``crash:5`` means "the first five queries of this
        cell", deterministically."""
        if self.injector is None:
            return None
        key = (system, algorithm, n_threads)
        with self._seq_lock:
            seq = self._fault_seq.get(key, 0)
            self._fault_seq[key] = seq + 1
        return self.injector.fault_for(system, algorithm, n_threads,
                                       seq)

    @staticmethod
    def _shed(reason: str, retry_after_s: float,
              detail: str) -> tuple[int, dict, dict]:
        status = 429 if reason == "rate_limited" else 503
        return (status,
                {"error": reason, "detail": detail},
                {"Retry-After": f"{max(retry_after_s, 0.1):.1f}"})

    def handle_query(self, payload, client: str
                     ) -> tuple[int, dict, dict]:
        """Run one query to a terminal response.

        Returns ``(status, body, extra_headers)``; never raises.
        """
        t0 = time.monotonic()
        status, body, headers = self._handle_query(payload, client)
        duration = time.monotonic() - t0
        self.telemetry.counter("epg_serve_requests_total",
                               endpoint="query", status=str(status))
        self.telemetry.observe("epg_serve_request_seconds", duration,
                               status=str(status))
        if status in (429, 503):
            self.telemetry.counter("epg_serve_shed_total",
                                   reason=body.get("error", "other"))
        fields = payload if isinstance(payload, dict) else {}
        self.telemetry.request_span(
            "query", duration_s=duration, status=status,
            graph=str(fields.get("graph", "")),
            system=str(fields.get("system", "")),
            algorithm=str(fields.get("algorithm", "")),
            client=str(client))
        return status, body, headers

    def _handle_query(self, payload, client: str
                      ) -> tuple[int, dict, dict]:
        if self.draining or not self.ready:
            return self._shed("draining", self.config.drain_grace_s,
                              "daemon is not accepting queries")
        if not isinstance(payload, dict):
            return 400, {"error": "bad_request",
                         "detail": "JSON object required"}, {}
        graph = payload.get("graph")
        system = payload.get("system")
        algorithm = payload.get("algorithm")
        if not all(isinstance(v, str) and v
                   for v in (graph, system, algorithm)):
            return 400, {"error": "bad_request",
                         "detail": "graph, system, and algorithm are "
                                   "required strings"}, {}
        dataset = self.manager.datasets.get(graph)
        if dataset is None:
            return 404, {"error": "unknown_graph",
                         "detail": f"graph {graph!r} is not served",
                         "served": sorted(self.manager.datasets)}, {}
        if algorithm not in ALGORITHMS:
            return 400, {"error": "bad_request",
                         "detail": f"unknown algorithm {algorithm!r}"}, {}
        try:
            n_threads = int(payload.get("n_threads", 32))
            root = payload.get("root")
            if algorithm in ROOTED_ALGORITHMS:
                root = int(root if root is not None else 0)
                if not 0 <= root < dataset.n_vertices:
                    return 400, {
                        "error": "bad_request",
                        "detail": f"root must be in [0, "
                                  f"{dataset.n_vertices})"}, {}
            else:
                root = None
            if n_threads < 1:
                raise ValueError
        except (TypeError, ValueError):
            return 400, {"error": "bad_request",
                         "detail": "root and n_threads must be "
                                   "integers"}, {}

        if not self.limiter.allow(client):
            return self._shed("rate_limited",
                              self.limiter.retry_after_s(),
                              f"client {client!r} over its rate")
        breaker = self._breaker(graph, system)
        admitted, retry_after = breaker.allow()
        if not admitted:
            return self._shed("circuit_open", retry_after,
                              f"{system} is failing on {graph}; "
                              "circuit open")
        ticket = self.admission.try_admit()
        if ticket is None:
            return self._shed("queue_full", 1.0,
                              "admission queue is full")

        fault = self._next_fault(system, algorithm, n_threads)
        job = Job(graph=graph, system=system, algorithm=algorithm,
                  n_threads=n_threads, root=root, fault=fault,
                  ticket=ticket,
                  solo=getattr(fault, "kind", None) == "hang")
        try:
            if not self.batcher.submit(job):
                return self._shed("draining", self.config.drain_grace_s,
                                  "daemon is draining")
            outcome = job.promise.wait(self.config.request_timeout_s)
            if outcome is None:
                job.promise.fail("timeout", "request deadline "
                                            "exceeded")
                outcome = job.promise.wait(0)
            kind, value = outcome
            if kind == "ok":
                breaker.on_success()
                return 200, {"status": "ok", "result": value,
                             "batched": True}, {}
            reason, detail = value
            breaker.on_failure()
            return self._shed(reason, 1.0, detail)
        finally:
            ticket.release()

    # ------------------------------------------------------------------
    # Read-only endpoints
    # ------------------------------------------------------------------
    def handle_get(self, path: str) -> tuple[int, str, str]:
        """(status, content_type, body) for the GET surface."""
        if path == "/healthz":
            return 200, "text/plain", "ok\n"
        if path == "/readyz":
            if self.ready and not self.draining:
                return 200, "text/plain", "ready\n"
            return 503, "text/plain", ("draining\n" if self.draining
                                       else "starting\n")
        if path == "/metrics":
            return 200, "text/plain; version=0.0.4", \
                self.telemetry.prometheus()
        if path == "/graphs":
            body = json.dumps({
                "graphs": [
                    {"name": name, "n_vertices": d.n_vertices,
                     "n_edges": d.n_edges, "directed": d.directed,
                     "weighted": d.weighted}
                    for name, d in sorted(
                        self.manager.datasets.items())],
            }, indent=2)
            return 200, "application/json", body
        if path == "/stats":
            body = json.dumps(self.stats(), indent=2)
            return 200, "application/json", body
        return 404, "application/json", json.dumps(
            {"error": "not_found", "detail": path})

    def stats(self) -> dict:
        with self._breaker_lock:
            breakers = {"/".join(k): b.snapshot()
                        for k, b in sorted(self.breakers.items())}
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "ready": self.ready, "draining": self.draining,
            "recovered_graphs": self.recovered,
            "admission": self.admission.stats(),
            "workers": {"n": self.pool.n_workers,
                        "quarantined": self.pool.quarantined},
            "breakers": breakers,
            "residency": self.manager.stats(),
        }

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def serve_forever(self, *, install_signal_handlers: bool = True,
                      ready_event: threading.Event | None = None
                      ) -> int:
        """Start, serve until SIGTERM/SIGINT, drain, return 0."""
        self.start()
        self._server = bind(self.config.host, self.config.port,
                            _make_handler(self), ServiceError)
        self._log.info("listening on %s:%d", self.config.host,
                       self.config.port)
        return serve_until_stopped(
            self._server, self._shutdown,
            install_signal_handlers=install_signal_handlers,
            ready_event=ready_event, on_stop=self.drain)


def _make_handler(daemon: QueryDaemon):
    log = get_logger("repro.service.http")

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "epg-serve"
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):  # quiet by default
            log.debug("%s " + fmt, self.address_string(), *args)

        def do_GET(self):
            try:
                path = self.path.split("?", 1)[0]
                status, ctype, body = daemon.handle_get(path)
                # Unknown paths share one label value: clients must
                # not be able to grow the metrics registry unboundedly.
                endpoint = path if path in _GET_ENDPOINTS else "other"
                daemon.telemetry.counter(
                    "epg_serve_requests_total",
                    endpoint=endpoint,
                    status=str(status))
                write_response(self, status, ctype, body)
            except Exception:
                log.exception("GET %s failed", self.path)
                write_response(
                    self, 503, "application/json", json.dumps(
                        {"error": "internal", "detail": "handler error"}))

        def do_POST(self):
            try:
                if self.path.split("?", 1)[0] != "/query":
                    # The body stays unread: close, so that it is not
                    # parsed as the connection's next request.
                    write_response(
                        self, 404, "application/json", json.dumps(
                            {"error": "not_found", "detail": self.path}),
                        {"Connection": "close"})
                    return
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    payload = json.loads(
                        self.rfile.read(length).decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    write_response(
                        self, 400, "application/json", json.dumps(
                            {"error": "bad_request",
                             "detail": "body must be JSON"}))
                    return
                client = (self.headers.get("X-Client")
                          or self.client_address[0])
                status, body, headers = daemon.handle_query(
                    payload, client)
                write_response(self, status, "application/json",
                               json.dumps(body), headers)
            except Exception:
                # The no-500 guarantee: anything unexpected degrades
                # to a well-formed 503.
                log.exception("POST %s failed", self.path)
                try:
                    write_response(
                        self, 503, "application/json", json.dumps(
                            {"error": "internal",
                             "detail": "handler error"}),
                        {"Retry-After": "1.0"})
                except Exception:
                    pass

    return Handler
