"""End-to-end daemon tests over real HTTP.

The in-process tests run :class:`QueryDaemon` on an ephemeral port in a
background thread; the subprocess test exercises the full ``epg serve``
/ ``epg loadgen`` CLI path including SIGKILL crash recovery and the
graceful SIGTERM drain.
"""

import contextlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.resilience.retry import RetryPolicy
from repro.service import LoadGenerator, QueryDaemon, ServeConfig

REPO = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# In-process harness
# ----------------------------------------------------------------------

@contextlib.contextmanager
def running_daemon(data_dir: Path, **overrides):
    overrides.setdefault("batch_window_s", 0.005)
    cfg = ServeConfig(data_dir=data_dir, port=0, **overrides)
    daemon = QueryDaemon(cfg)
    ready = threading.Event()
    rc: list[int] = []
    thread = threading.Thread(
        target=lambda: rc.append(daemon.serve_forever(
            install_signal_handlers=False, ready_event=ready)),
        daemon=True)
    thread.start()
    assert ready.wait(60.0), "daemon never became ready"
    port = daemon._server.server_address[1]
    try:
        yield daemon, f"http://127.0.0.1:{port}"
    finally:
        daemon.request_shutdown()
        thread.join(30.0)
    assert rc == [0]


def http_get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


def _counter_total(daemon: QueryDaemon, name: str) -> float:
    """Sum of counter ``name`` over its label sets (0 if never bumped)."""
    metric = daemon.telemetry.tracer.metrics.get(name)
    return metric.total() if metric is not None else 0.0


def post_query(base: str, payload, client: str = "test"):
    req = urllib.request.Request(
        base + "/query", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json",
                 "X-Client": client}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """One materialized kron:6 roster shared by every in-process test
    (each daemon reopens it from ``served.json``)."""
    root = tmp_path_factory.mktemp("serve-data")
    with running_daemon(root, graphs=("kron:6",)):
        pass
    return root


class TestDaemonHTTP:
    def test_health_graphs_and_query_roundtrip(self, data_dir):
        with running_daemon(data_dir) as (daemon, base):
            assert http_get(base + "/healthz")[0] == 200
            assert http_get(base + "/readyz")[0] == 200
            # A burst of fresh connections (loadgen opens one per
            # request) must not overflow the stdlib's backlog of 5.
            assert daemon._server.request_queue_size == 128
            status, body = http_get(base + "/graphs")
            graphs = json.loads(body)["graphs"]
            assert [g["name"] for g in graphs] == ["kron6"]
            assert graphs[0]["n_vertices"] == 64

            status, body = post_query(base, {
                "graph": "kron6", "system": "gap",
                "algorithm": "bfs", "root": 3, "n_threads": 2})
            assert status == 200
            result = body["result"]
            assert result["root"] == 3
            assert result["n_vertices"] == 64
            assert result["reached"] >= 1
            assert body["batched"] is True

            status, metrics = http_get(base + "/metrics")
            assert status == 200
            assert "epg_serve_requests_total" in metrics
            stats = json.loads(http_get(base + "/stats")[1])
            assert stats["ready"] and not stats["draining"]
            # Versioned payload: external consumers (`epg dash`) key
            # on this to reject daemons they cannot interpret.
            from repro.service import STATS_SCHEMA_VERSION
            assert stats["schema_version"] == STATS_SCHEMA_VERSION

    def test_malformed_requests_get_4xx_never_5xx(self, data_dir):
        with running_daemon(data_dir) as (_, base):
            cases = [
                ([1, 2, 3], 400),                                # not an object
                ({"graph": "kron6"}, 400),                       # missing fields
                ({"graph": "nope", "system": "gap",
                  "algorithm": "bfs"}, 404),                     # unknown graph
                ({"graph": "kron6", "system": "gap",
                  "algorithm": "warp"}, 400),                    # unknown algo
                ({"graph": "kron6", "system": "gap",
                  "algorithm": "bfs", "root": 9999}, 400),       # root OOB
                ({"graph": "kron6", "system": "gap",
                  "algorithm": "bfs", "root": "x"}, 400),        # bad type
            ]
            for payload, expected in cases:
                status, body = post_query(base, payload)
                assert status == expected, (payload, status, body)
                assert "error" in body
            assert http_get(base + "/no-such-endpoint")[0] == 404

    def test_metrics_labels_are_bounded(self, data_dir):
        with running_daemon(data_dir) as (daemon, base):
            # Arbitrary 404 paths must not mint new endpoint labels.
            assert http_get(base + "/evil/arbitrary-path")[0] == 404
            # Client errors (400/404) are not load shedding.
            assert post_query(base, {"graph": "kron6"})[0] == 400
            status, metrics = http_get(base + "/metrics")
            assert status == 200
            assert "/evil/arbitrary-path" not in metrics
            assert 'endpoint="other"' in metrics
            assert _counter_total(daemon, 
                "epg_serve_shed_total") == 0.0

    def test_batched_roots_share_one_response_shape(self, data_dir):
        with running_daemon(data_dir, batch_window_s=0.05) as (_, base):
            results: dict[int, tuple] = {}

            def one(root):
                results[root] = post_query(base, {
                    "graph": "kron6", "system": "gap",
                    "algorithm": "bfs", "root": root, "n_threads": 2})

            threads = [threading.Thread(target=one, args=(r,))
                       for r in (1, 2, 3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for root, (status, body) in results.items():
                assert status == 200
                assert body["result"]["root"] == root

    def test_queue_full_sheds_503_with_retry_after(self, data_dir):
        with running_daemon(data_dir, max_queue=0,
                            max_inflight=1) as (daemon, base):
            # Pin the only admission slot, then knock on the door.
            ticket = daemon.admission.try_admit()
            try:
                req = urllib.request.Request(
                    base + "/query",
                    data=json.dumps({
                        "graph": "kron6", "system": "gap",
                        "algorithm": "bfs"}).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST")
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    urllib.request.urlopen(req, timeout=30)
                exc = exc_info.value
                assert exc.code == 503
                assert json.loads(exc.read().decode())["error"] == \
                    "queue_full"
                assert float(exc.headers["Retry-After"]) > 0
            finally:
                ticket.release()

    def test_per_client_rate_limit_is_429(self, data_dir):
        with running_daemon(data_dir,
                            max_rps_per_client=1.0) as (_, base):
            payload = {"graph": "kron6", "system": "gap",
                       "algorithm": "bfs"}
            assert post_query(base, payload, client="greedy")[0] == 200
            status, body = post_query(base, payload, client="greedy")
            assert status == 429 and body["error"] == "rate_limited"
            # Other clients are unaffected.
            assert post_query(base, payload, client="polite")[0] == 200

    def test_shutdown_executes_drain_body(self, data_dir, tmp_path):
        """Regression: serve_forever sets ``draining`` before calling
        drain(); the drain body (pool stop, telemetry close, manifest
        save) must still run exactly once, not be short-circuited."""
        trace_dir = tmp_path / "trace"
        with running_daemon(data_dir,
                            trace_dir=trace_dir) as (daemon, base):
            assert daemon.telemetry.enabled
            assert post_query(base, {
                "graph": "kron6", "system": "gap",
                "algorithm": "bfs"})[0] == 200
        assert daemon._drained
        assert daemon.pool._stopping
        # telemetry.close() ran: the tracer flushed its event log and
        # disabled itself.
        assert not daemon.telemetry.enabled
        assert (trace_dir / "events.jsonl").exists()
        assert (data_dir / "served.json").exists()

    def test_draining_daemon_sheds_and_fails_readyz(self, data_dir):
        with running_daemon(data_dir) as (daemon, base):
            daemon.draining = True
            status, body = post_query(base, {
                "graph": "kron6", "system": "gap",
                "algorithm": "bfs"})
            assert status == 503 and body["error"] == "draining"
            assert http_get(base + "/readyz")[0] == 503
            daemon.draining = False  # let the fixture drain cleanly


class TestSharedGraph:
    """Two workers, one resident structure.  Kernels keep scratch
    arenas (and, sharded, a worker pool) on the loaded structure; with
    nothing idling in front of them, two sweeps met there in ~10 % of
    same-graph requests until leases became exclusive."""

    QUERIES = 100

    @pytest.fixture(scope="class")
    def kron10_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serve-kron10")
        daemon = QueryDaemon(ServeConfig(data_dir=root,
                                         graphs=("kron:10",)))
        daemon.start()
        daemon.drain()
        return root

    @pytest.mark.parametrize("shards", [1, 2])
    def test_two_clients_on_one_graph_never_fail(self, kron10_dir,
                                                 shards):
        daemon = QueryDaemon(ServeConfig(data_dir=kron10_dir,
                                         workers=2, shards=shards))
        daemon.start()
        answers: list[list] = [[], []]

        def client(c: int) -> None:
            rng = random.Random(c)
            for _ in range(self.QUERIES):
                payload = {
                    "graph": "kron10", "system": "gap",
                    "algorithm": rng.choice(
                        ("bfs", "sssp", "pagerank")),
                    "root": rng.randrange(1024)}
                status, body, _ = daemon.handle_query(
                    payload, f"client{c}")
                answers[c].append((status, body.get("detail")))

        # Short time slices interleave the two kernels far more often
        # than the default 5 ms does.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
            daemon.drain()  # also closes the residents' shard pools
        bad = [a for per in answers for a in per if a[0] != 200]
        assert not bad, bad[:3]
        assert sum(map(len, answers)) == 2 * self.QUERIES


class TestResidentAnswers:
    """Each resident (graph, system, threads) entry is loaded in a
    session of its own, whose answer memo serves its later queries."""

    def test_two_lcc_queries_run_the_body_once(self, data_dir,
                                               monkeypatch):
        import repro.systems.base as base

        calls = []
        body = base.clustering_blocks

        def counted(*args):
            calls.append(args)
            return body(*args)

        monkeypatch.setattr(base, "clustering_blocks", counted)
        daemon = QueryDaemon(ServeConfig(data_dir=data_dir))
        daemon.start()
        query = {"graph": "kron6", "system": "graphbig",
                 "algorithm": "lcc", "n_threads": 2}
        try:
            replies = [daemon.handle_query(dict(query), "test")
                       for _ in range(2)]
        finally:
            daemon.drain()
        assert [status for status, _, _ in replies] == [200, 200]
        assert replies[0][1]["result"] == replies[1][1]["result"]
        assert len(calls) == 1

@pytest.mark.faulty
class TestChaos:
    def test_crash_burst_opens_then_recloses_circuit(self, data_dir):
        policy = RetryPolicy(base_backoff_s=0.05, max_backoff_s=0.2)
        with running_daemon(
                data_dir, fault_spec="gap/bfs/t2:crash:3",
                breaker_failures=2,
                breaker_policy=policy) as (daemon, base):
            payload = {"graph": "kron6", "system": "gap",
                       "algorithm": "bfs", "n_threads": 2}
            statuses, reasons = [], []
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                status, body = post_query(base, payload)
                statuses.append(status)
                if status != 200:
                    reasons.append(body["error"])
                else:
                    break
                time.sleep(0.05)
            # Faults and circuit-open sheds are well-formed 503s; the
            # burst ends and the half-open probe closes the circuit.
            assert set(statuses) <= {200, 503}
            assert statuses[-1] == 200
            assert reasons.count("fault") >= 2
            assert "circuit_open" in reasons
            snap = daemon.stats()["breakers"]["kron6/gap"]
            assert snap["state"] == "closed"
            assert _counter_total(daemon, 
                "epg_serve_circuit_transitions_total") >= 3.0
            assert _counter_total(daemon, 
                "epg_serve_faults_total") >= 3.0

    def test_hang_fault_quarantines_worker_not_daemon(self, data_dir):
        with running_daemon(
                data_dir, fault_spec="gap/bfs/t3:hang:1",
                workers=2, wedge_timeout_s=0.2,
                request_timeout_s=5.0) as (daemon, base):
            payload = {"graph": "kron6", "system": "gap",
                       "algorithm": "bfs", "n_threads": 3}
            status, body = post_query(base, payload)
            assert status == 503
            assert body["error"] in ("fault", "timeout")
            # The watchdog replaced the wedged worker; the daemon still
            # serves the very next query.
            status, _ = post_query(base, payload)
            assert status == 200
            deadline = time.monotonic() + 3.0
            while daemon.pool.quarantined == 0 \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert daemon.pool.quarantined == 1

    def test_corrupt_fault_is_caught_by_validation(self, data_dir):
        with running_daemon(
                data_dir,
                fault_spec="gap/bfs/t5:corrupt:1") as (_, base):
            payload = {"graph": "kron6", "system": "gap",
                       "algorithm": "bfs", "root": 2, "n_threads": 5}
            status, body = post_query(base, payload)
            assert status == 503 and body["error"] == "invalid"
            assert "validation" in body["detail"]
            status, body = post_query(base, payload)
            assert status == 200
            assert body["result"]["root"] == 2

    def test_loadgen_chaos_soak_is_clean(self, data_dir):
        """The acceptance loop in miniature: overload + faults, and
        every response is still well-formed."""
        policy = RetryPolicy(base_backoff_s=0.05, max_backoff_s=0.2)
        with running_daemon(
                data_dir, fault_spec="gap/bfs/t2:crash:4",
                max_queue=2, max_inflight=2, workers=2,
                breaker_policy=policy) as (daemon, base):
            gen = LoadGenerator(base, duration_s=2.0, clients=6,
                                mode="closed", seed=11,
                                systems=("gap",),
                                algorithms=("bfs",), n_threads=2)
            report = gen.run()
            assert report.requests > 10
            assert report.dirty_responses == 0
            assert report.count(200) > 0
            assert set(map(int, report.status_counts)) <= \
                {200, 429, 503}
            # Shed volume is bounded by capacity, not unbounded 500s.
            assert report.count(503) + report.count(200) == \
                report.requests


@pytest.mark.slow
class TestServeCLI:
    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        return env

    def _wait_ready(self, port: int, proc, timeout=90.0) -> str:
        base = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise AssertionError(
                    f"serve exited early: {proc.returncode}")
            try:
                if http_get(base + "/readyz")[0] == 200:
                    return base
            except (urllib.error.URLError, OSError):
                pass
            time.sleep(0.1)
        raise AssertionError("daemon never became ready")

    def _free_port(self) -> int:
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            return s.getsockname()[1]

    def _serve(self, data_dir: Path, port: int, *extra):
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--data-dir", str(data_dir), "--port", str(port),
             "--workers", "2", *extra],
            env=self._env(), cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def test_sigkill_recovery_then_graceful_sigterm(self, tmp_path):
        data_dir = tmp_path / "serve"
        port = self._free_port()
        proc = self._serve(data_dir, port, "--graphs", "kron:6")
        try:
            base = self._wait_ready(port, proc)
            status, _ = post_query(base, {
                "graph": "kron6", "system": "gap",
                "algorithm": "bfs"})
            assert status == 200
            # Crash hard: no drain, no goodbye.
            proc.kill()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()

        # Damage the on-disk dataset before the restart.
        victim = next((data_dir / "graphs" / "kron6").rglob("*.wel"))
        victim.write_bytes(b"not an edge list")

        proc = self._serve(data_dir, port)  # roster from served.json
        try:
            base = self._wait_ready(port, proc)
            stats = json.loads(http_get(base + "/stats")[1])
            assert stats["recovered_graphs"] == 1
            status, body = post_query(base, {
                "graph": "kron6", "system": "gap",
                "algorithm": "bfs", "root": 1})
            assert status == 200
            assert body["result"]["n_vertices"] == 64

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_loadgen_cli_writes_clean_report(self, tmp_path):
        data_dir = tmp_path / "serve"
        report_path = tmp_path / "load.json"
        port = self._free_port()
        proc = self._serve(data_dir, port, "--graphs", "kron:6",
                           "--fault-spec", "gap/bfs/t2:crash:2")
        try:
            self._wait_ready(port, proc)
            out = subprocess.run(
                [sys.executable, "-m", "repro.cli", "loadgen",
                 "--url", f"http://127.0.0.1:{port}",
                 "--duration", "2", "--clients", "4",
                 "--systems", "gap", "--algorithms", "bfs",
                 "--threads", "2",
                 "--report", str(report_path)],
                env=self._env(), cwd=REPO, capture_output=True,
                text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            report = json.loads(report_path.read_text())
            assert report["dirty_responses"] == 0
            assert report["requests"] > 0
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
