"""Serving gate: the daemon survives overload plus chaos, cleanly.

A scale-10 graph is served by an in-process daemon with a crash burst
injected on the GAP BFS 2-thread cell, a deliberately small admission
queue, and a fast breaker cooldown.  A closed-loop client fleet then
overloads it.  The gate asserts the serving acceptance criteria: every
response is well-formed (no 5xx other than 503, no transport errors),
queries succeed both during and after the burst, the circuit recloses,
and the latency/shed report is written as a benchmark artifact.

Before the overload, a quiet-load row: one keep-alive connection sends
queries back to back and the median must stay under ``QUIET_FLOOR_MS``.
A response written as two segments stalls such a client ~40 ms in
delayed ACK on every request, and a linger window slept with a worker
idle adds its length again; either is present in full or absent, so the
floor separates them from any plausible machine slowness.
"""

import http.client
import json
import random
import statistics
import threading
import time
from contextlib import contextmanager

from conftest import write_artifact

from repro.resilience.retry import RetryPolicy
from repro.service import LoadGenerator, QueryDaemon, ServeConfig

GATE_SCALE = 10
FAULT_SPEC = "gap/bfs/t2:crash:4"
DURATION_S = 4.0
CLIENTS = 6
QUIET_REQUESTS = 50
QUIET_FLOOR_MS = 25.0


@contextmanager
def serving(data_dir):
    cfg = ServeConfig(
        data_dir=data_dir, graphs=(f"kron:{GATE_SCALE}",), port=0,
        workers=2, max_queue=4, max_inflight=2,
        batch_window_s=0.005, fault_spec=FAULT_SPEC,
        breaker_failures=2,
        breaker_policy=RetryPolicy(base_backoff_s=0.05,
                                   max_backoff_s=0.2))
    daemon = QueryDaemon(cfg)
    ready = threading.Event()
    rc = []
    thread = threading.Thread(
        target=lambda: rc.append(daemon.serve_forever(
            install_signal_handlers=False, ready_event=ready)),
        daemon=True)
    thread.start()
    assert ready.wait(120.0), "daemon never became ready"
    port = daemon._server.server_address[1]
    try:
        yield daemon, f"http://127.0.0.1:{port}"
    finally:
        daemon.request_shutdown()
        thread.join(60.0)
    assert rc == [0], "daemon did not drain cleanly"


def run_quiet(base):
    """p50 of ``QUIET_REQUESTS`` sequential queries on one persistent
    connection (default ``n_threads``, so off the faulted cell)."""
    rng = random.Random(11)
    conn = http.client.HTTPConnection(base.removeprefix("http://"),
                                      timeout=30)
    latencies_ms = []
    try:
        for i in range(QUIET_REQUESTS + 1):     # first one loads
            body = json.dumps({
                "graph": f"kron{GATE_SCALE}", "system": "gap",
                "algorithm": "bfs",
                "root": rng.randrange(1 << GATE_SCALE)})
            t0 = time.perf_counter()
            conn.request("POST", "/query", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200, resp.status
            if i:
                latencies_ms.append((time.perf_counter() - t0) * 1e3)
    finally:
        conn.close()
    return {"connections": 1, "requests": QUIET_REQUESTS,
            "p50_ms": round(statistics.median(latencies_ms), 3),
            "floor_ms": QUIET_FLOOR_MS}


def run_soak(data_dir):
    with serving(data_dir) as (daemon, base):
        quiet = run_quiet(base)
        gen = LoadGenerator(base, duration_s=DURATION_S,
                            clients=CLIENTS, mode="closed", seed=11,
                            systems=("gap",), algorithms=("bfs",),
                            n_threads=2)
        report = gen.run()
        stats = daemon.stats()
        return quiet, report, stats


def test_service_gate(benchmark, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-service")
    quiet, report, stats = benchmark.pedantic(
        run_soak, args=(out,), rounds=1, iterations=1)

    assert quiet["p50_ms"] < QUIET_FLOOR_MS, quiet
    d = report.to_dict()
    # The chaos-soak acceptance criteria.
    assert d["dirty_responses"] == 0, d
    assert report.count(200) > 0, d
    assert set(map(int, report.status_counts)) <= {200, 429, 503}, d
    # The fault burst surfaced, then the circuit reclosed.
    assert report.shed_reasons.get("fault", 0) >= 2, d
    breaker = stats["breakers"]["kron10/gap"]
    assert breaker["state"] == "closed", stats

    write_artifact("service_gate.json", json.dumps({
        "fault_spec": FAULT_SPEC,
        "quiet_load": quiet,
        "load": d,
        "breakers": stats["breakers"],
        "admission": stats["admission"],
    }, indent=2))
    print(f"\nquiet load: p50 {quiet['p50_ms']} ms over "
          f"{quiet['requests']} keep-alive requests "
          f"(floor {QUIET_FLOOR_MS} ms)")
    print(report.summary())
