"""What the two stdlib HTTP front ends (``epg serve``, ``epg dash``)
share: the listening server and the response writer.

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
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["FrontEndServer", "write_response"]


class FrontEndServer(ThreadingHTTPServer):
    """A thread per connection, none of which outlives the process."""

    request_queue_size = 128
    daemon_threads = True


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
