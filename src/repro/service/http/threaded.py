"""Threaded transport: one handler thread per connection.

A thin adapter from ``http.server.ThreadingHTTPServer`` to the
:class:`~repro.service.http.app.App` contract: the handler reads the body,
builds a :class:`Request`, calls ``app.handle`` and writes the
:class:`Response`.  All routing, header policy and error mapping live in
the app — this module owns only sockets, threads and request framing.

Framing scope: request line + headers + ``Content-Length`` bodies.  A
chunked request body, a non-integer or negative ``Content-Length`` and an
oversized body are refused with a JSON 400 before any body byte is read,
and so are the stdlib parser's own rejections (malformed request line,
header flood, over-long line), which keep stdlib's status codes.  Every
framing error closes the connection: the unread bytes would desynchronise
the keep-alive stream.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .app import App, Request, Response
from .errors import oversized_body_response

__all__ = ["ThreadedTransport"]


def _bad_request(message: str) -> Response:
    """A framing-level 400; always closes (the stream may be desynced)."""
    return Response.json(400, {"error": message}, close=True)


class _AppHandler(BaseHTTPRequestHandler):
    """Generic handler delegating every request to the bound app."""

    server: "ThreadedTransport"
    protocol_version = "HTTP/1.1"
    # Responses are written as two sends (headers, body) on a keep-alive
    # connection; Nagle + the peer's delayed ACK would cost ~40ms per
    # reply otherwise.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Answer stdlib-level parse errors in the app's JSON error shape.

        ``BaseHTTPRequestHandler`` calls this for a malformed request line,
        a header flood or an over-long line, keeping its status code but
        writing an HTML page — with no status line at all when the request
        line never parsed (it then assumes HTTP/0.9).
        """
        error = message or self.responses.get(code, ("Error",))[0]
        if explain:
            error = f"{error}: {explain}"
        self.log_error("code %d, message %s", code, error)
        # Whatever version the client claimed (if any), the error goes out
        # as a full HTTP/1.1 response with a status line and headers.
        self.request_version = self.protocol_version
        self._write(Response.json(code, {"error": error}, close=True))

    def _dispatch(self) -> None:
        app = self.server.app
        if "chunked" in (self.headers.get("Transfer-Encoding") or "").lower():
            self._write(_bad_request("chunked transfer encoding is not supported"))
            return
        declared = self.headers.get("Content-Length") or "0"
        if not declared.strip().isdecimal():  # also refuses a negative length
            self._write(_bad_request(f"bad Content-Length {declared!r}"))
            return
        length = int(declared)
        if length > app.max_body_bytes:
            # Rejected without draining: the unread body would desync the
            # keep-alive stream, so the response says close and we do.
            self._write(oversized_body_response(app.max_body_bytes))
            return
        body = self.rfile.read(length) if length > 0 else b""
        url = urlsplit(self.path)
        request = Request(
            method=self.command,
            target=self.path,
            path=url.path,
            query=url.query,
            headers=self.headers,
            body=body,
        )
        self._write(app.handle(request))

    # Every method funnels through the app: unknown (method, path) pairs
    # get the app's uniform JSON 404 instead of stdlib's HTML 501.
    do_GET = _dispatch  # noqa: N815 (stdlib API)
    do_POST = _dispatch  # noqa: N815
    do_HEAD = _dispatch  # noqa: N815
    do_PUT = _dispatch  # noqa: N815
    do_DELETE = _dispatch  # noqa: N815
    do_PATCH = _dispatch  # noqa: N815
    do_OPTIONS = _dispatch  # noqa: N815

    def _write(self, response: Response) -> None:
        if response.stream is not None:
            self._write_stream(response)
            return
        if response.close:
            self.close_connection = True
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(response.body)
        if response.after_send is not None:
            response.after_send()

    def _write_stream(self, response: Response) -> None:
        """Chunked Transfer-Encoding: one HTTP chunk per yielded frame.

        A producer that raises mid-stream aborts the connection without the
        terminating zero chunk — truncation is the client's error signal
        (the contract documented on :class:`Response` and pinned by the
        parity suite).
        """
        if response.close:
            self.close_connection = True
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Transfer-Encoding", "chunked")
        for name, value in response.headers.items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        frames = iter(response.stream)
        try:
            for frame in frames:
                if not frame:
                    continue
                self.wfile.write(b"%x\r\n%s\r\n" % (len(frame), frame))
                self.wfile.flush()
        except Exception:  # noqa: BLE001 — producer or peer failed mid-stream
            self.close_connection = True
            return
        finally:
            closer = getattr(frames, "close", None)
            if closer is not None:
                try:
                    closer()
                except Exception:  # noqa: BLE001 — abort already signalled
                    pass
        self.wfile.write(b"0\r\n\r\n")
        if response.after_send is not None:
            response.after_send()


class ThreadedTransport(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one :class:`App`."""

    daemon_threads = True
    # socketserver's default accept backlog is 5: a high-concurrency client
    # (the loadtest soak opens hundreds of connections at once) gets
    # connection resets before a single byte of HTTP is spoken.
    request_queue_size = 128

    def __init__(
        self,
        address: tuple[str, int],
        app: App,
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _AppHandler)
        self.app = app
        self.verbose = verbose
        app.verbose = app.verbose or verbose
        # The /shutdown hook: ``shutdown`` blocks until ``serve_forever``
        # exits, so it must run off the handler thread (which still has to
        # finish writing the response).
        app.transport_shutdown = self._background_shutdown
        self._serve_started = False

    def _background_shutdown(self) -> None:
        threading.Thread(target=self.shutdown, daemon=True).start()

    def serve_forever(self, *args, **kwargs) -> None:
        self._serve_started = True
        super().serve_forever(*args, **kwargs)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Full teardown: stop serving, release the socket, close the app.

        Safe in every lifecycle state: ``shutdown`` is only invoked when
        the serve loop has actually been entered (it would block forever
        on a server whose ``serve_forever`` never ran), and it returns
        immediately when the loop has already exited.
        """
        if self._serve_started:
            self.shutdown()
        self.server_close()
        self.app.close()
