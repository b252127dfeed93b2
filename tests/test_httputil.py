"""Both HTTP front ends answer every request with one socket write.

A response sent as two small segments (headers, then body) costs a
keep-alive client ~40 ms of delayed ACK per request.  These tests drive
the real handler classes of ``epg serve`` and ``epg dash`` over a fake
connection that counts ``sendall`` calls, so the property is checked
without a clock.
"""

import io
import json
import socket
import types

import pytest

from repro.dashboard import DashConfig, DashboardServer
from repro.dashboard.server import _Handler as DashHandler
from repro.service import QueryDaemon, ServeConfig
from repro.service.daemon import _make_handler


class CountingSocket:
    """The server side of one connection: serves ``request`` to the
    handler's reads and records each write the handler makes."""

    def __init__(self, request: bytes):
        self._request = request
        self.sends: list[bytes] = []
        self.options: list[tuple] = []

    def makefile(self, mode, bufsize=None):
        return io.BytesIO(self._request)

    def sendall(self, data) -> None:
        self.sends.append(bytes(data))

    def setsockopt(self, *option) -> None:
        self.options.append(option)


def exchange(handler_cls, request: bytes, server=None) -> CountingSocket:
    """Run one connection through ``handler_cls`` to completion."""
    sock = CountingSocket(request)
    handler_cls(sock, ("127.0.0.1", 54321), server)
    return sock


def request_bytes(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


def parse(response: bytes) -> tuple[int, dict, bytes]:
    head, _, body = response.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("iso-8859-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, body


def assert_one_write(sock: CountingSocket, status: int) -> dict:
    assert len(sock.sends) == 1, [s[:60] for s in sock.sends]
    got, headers, body = parse(sock.sends[0])
    assert got == status
    assert int(headers["Content-Length"]) == len(body) > 0
    return headers


# ----------------------------------------------------------------------
# epg serve
# ----------------------------------------------------------------------

QUERY = {"graph": "kron6", "system": "gap", "algorithm": "bfs",
         "root": 3}


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    d = QueryDaemon(ServeConfig(
        data_dir=tmp_path_factory.mktemp("serve"), graphs=("kron:6",),
        max_queue=0, max_inflight=1))
    d.start()
    yield d
    d.drain()


@pytest.mark.parametrize("method,path,body,status", [
    ("GET", "/healthz", None, 200),
    ("GET", "/stats", None, 200),
    ("GET", "/no-such-endpoint", None, 404),
    ("POST", "/query", QUERY, 200),
    ("POST", "/query", {"graph": "kron6"}, 400),
    ("POST", "/query", dict(QUERY, graph="nope"), 404),
    ("POST", "/elsewhere", QUERY, 404),
])
def test_daemon_answers_with_one_write(daemon, method, path, body,
                                       status):
    raw = json.dumps(body).encode() if body is not None else b""
    sock = exchange(_make_handler(daemon),
                    request_bytes(method, path, raw))
    assert_one_write(sock, status)


def test_daemon_unparseable_body_is_one_write(daemon):
    sock = exchange(_make_handler(daemon),
                    request_bytes("POST", "/query", b"{not json"))
    assert_one_write(sock, 400)


def test_daemon_shed_is_one_write_with_retry_after(daemon):
    ticket = daemon.admission.try_admit()   # the only slot
    try:
        sock = exchange(_make_handler(daemon), request_bytes(
            "POST", "/query", json.dumps(QUERY).encode()))
    finally:
        ticket.release()
    headers = assert_one_write(sock, 503)
    assert float(headers["Retry-After"]) > 0
    assert json.loads(parse(sock.sends[0])[2])["error"] == "queue_full"


def test_daemon_keep_alive_is_one_write_per_request(daemon):
    one = request_bytes("POST", "/query", json.dumps(QUERY).encode())
    sock = exchange(_make_handler(daemon),
                    one + request_bytes("GET", "/healthz") + one)
    assert [parse(s)[0] for s in sock.sends] == [200, 200, 200]


def test_daemon_connection_disables_nagle(daemon):
    sock = exchange(_make_handler(daemon),
                    request_bytes("GET", "/healthz"))
    assert (socket.IPPROTO_TCP, socket.TCP_NODELAY, True) in sock.options


def test_http09_request_gets_the_bare_body(daemon):
    sock = exchange(_make_handler(daemon), b"GET /healthz\r\n")
    assert sock.sends == [b"ok\n"]


def test_hung_up_client_is_not_an_error(daemon):
    class Gone(CountingSocket):
        def sendall(self, data):
            raise BrokenPipeError

    sock = Gone(request_bytes("GET", "/healthz"))
    _make_handler(daemon)(sock, ("127.0.0.1", 54321), None)


# ----------------------------------------------------------------------
# epg dash
# ----------------------------------------------------------------------

@pytest.mark.parametrize("path,status,ctype", [
    ("/", 200, "text/html; charset=utf-8"),
    ("/healthz", 200, "application/json"),
    ("/api/runs", 200, "application/json"),
    ("/run/nope", 404, "text/html; charset=utf-8"),
    ("/api/run/nope/spans", 404, "application/json"),
])
def test_dashboard_answers_with_one_write(tmp_path, path, status, ctype):
    server = types.SimpleNamespace(
        dash=DashboardServer(DashConfig(root=tmp_path)))
    sock = exchange(DashHandler, request_bytes("GET", path), server)
    headers = assert_one_write(sock, status)
    assert headers["Content-Type"] == ctype
    assert headers["Cache-Control"] == "no-store"
