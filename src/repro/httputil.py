"""What the two stdlib HTTP front ends (``epg serve``, ``epg dash``)
share: the listening server, its lifecycle and the response writer.

Both are :mod:`http.server` defaults that cost a request far more than
the work it asked for, found by attributing ``epg serve`` latency layer
by layer (``bench/README.md``):

* ``BaseHTTPRequestHandler.end_headers()`` sends the header block and
  the caller then sends the body: two small segments on an unbuffered
  socket.  A keep-alive client's delayed ACK holds the second one back
  ~40 ms on every response.
* ``socketserver.TCPServer`` listens with a backlog of 5; a burst of
  fresh connections beyond that drops SYNs and each dropped client
  stalls 1 s in retransmit.
"""

from __future__ import annotations

import io
import signal
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.logging_util import get_logger

__all__ = ["FrontEndServer", "bind", "serve_until_stopped",
           "write_response"]


class FrontEndServer(ThreadingHTTPServer):
    """A thread per connection, none of which outlives the process."""

    request_queue_size = 128
    daemon_threads = True


def bind(host: str, port: int, handler: type[BaseHTTPRequestHandler],
         error: type[Exception]) -> FrontEndServer:
    """Listen on ``host:port``; a refused bind raises *error*."""
    try:
        return FrontEndServer((host, port), handler)
    except OSError as exc:
        raise error(f"cannot bind {host}:{port}: {exc}") from exc


def serve_until_stopped(server: FrontEndServer, stop: threading.Event, *,
                        install_signal_handlers: bool = True,
                        ready_event: threading.Event | None = None,
                        on_stop: Callable[[], None] | None = None) -> int:
    """Serve on a background thread until *stop* is set; return 0.

    SIGTERM and SIGINT set *stop*.  *on_stop* runs while the server
    still answers (the daemon drains there), then the server is shut
    down and its socket closed.
    """
    if install_signal_handlers:
        log = get_logger("repro.httputil")

        def _on_signal(signum, frame):
            log.info("signal %d: shutting down", signum)
            # Set from another thread: the handler runs on the main
            # thread, which may hold the event's lock inside wait().
            threading.Thread(target=stop.set, daemon=True).start()

        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, _on_signal)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.1},
                              name="epg-http", daemon=True)
    thread.start()
    if ready_event is not None:
        ready_event.set()
    try:
        stop.wait()
    finally:
        if on_stop is not None:
            on_stop()
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
    return 0


def write_response(handler: BaseHTTPRequestHandler, status: int,
                   content_type: str, body: bytes | str,
                   headers: dict | None = None) -> None:
    """Send status line, headers and body with a single socket write.

    A client that already hung up is not an error: the connection is
    marked for closing and the write is dropped.
    """
    data = body.encode("utf-8") if isinstance(body, str) else body
    handler.send_response(status)
    handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(len(data)))
    for name, value in (headers or {}).items():
        handler.send_header(name, value)
    # end_headers() flushes the header block as a segment of its own:
    # point it at a buffer and let the body leave in the same write.
    head = io.BytesIO()
    wfile, handler.wfile = handler.wfile, head
    try:
        handler.end_headers()
    finally:
        handler.wfile = wfile
    try:
        wfile.write(head.getvalue() + data)
    except (BrokenPipeError, ConnectionResetError):
        handler.close_connection = True
