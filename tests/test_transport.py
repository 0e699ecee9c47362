"""Transport tests (repro.service.http.threaded).

The shared app-layer behaviour is covered by test_service.py /
test_cluster.py; this file exercises what the transport owns: request
framing (malformed request line, header flood, bad Content-Length,
chunked rejection — every one a JSON 400-class error that closes the
connection), keep-alive and pipelining on one connection, slow clients
dribbling bytes, oversized-body rejection before the body arrives,
high-concurrency connection handling and the /shutdown lifecycle.
Everything talks raw sockets — the stdlib client would paper over exactly
the framing behaviour under test.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.service import start_background_server
from repro.service.http.app import MAX_BODY_BYTES
from repro.service.loadtest import run_soak

SCHEDULE_BODY = json.dumps(
    {
        "algorithm": "mrt",
        "generate": {"family": "uniform", "tasks": 4, "procs": 2, "seed": 0},
    }
).encode()


def request_bytes(method: str, target: str, body: bytes = b"", extra: str = "") -> bytes:
    head = f"{method} {target} HTTP/1.1\r\nHost: t\r\n{extra}"
    if body or method == "POST":
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


def read_response(rfile) -> tuple[int, dict[str, str], bytes]:
    status_line = rfile.readline()
    assert status_line, "server closed the connection before responding"
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = rfile.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = rfile.read(int(headers.get("content-length", 0)))
    return status, headers, body


def assert_json_error_and_close(rfile, headers: dict, body: bytes) -> str:
    """A framing error: JSON ``{"error": ...}``, honest length, then hang-up."""
    assert headers["content-type"] == "application/json"
    assert headers["content-length"] == str(len(body))
    assert headers["connection"] == "close"
    assert rfile.read() == b""  # server hung up
    return json.loads(body)["error"]


@pytest.fixture(scope="class")
def server():
    server, _ = start_background_server(allow_shutdown=False)
    yield server
    server.close()


@pytest.fixture
def sock(server):
    conn = socket.create_connection(server.server_address[:2], timeout=30)
    yield conn
    conn.close()


class TestThreadedTransport:
    def test_keep_alive_hundred_requests_on_one_connection(self, sock):
        rfile = sock.makefile("rb")
        for _ in range(100):
            sock.sendall(request_bytes("GET", "/healthz"))
            status, headers, body = read_response(rfile)
            assert status == 200
            assert headers.get("connection") != "close"
            assert json.loads(body)["status"] == "ok"

    def test_pipelined_requests_answered_in_order(self, sock):
        # Three requests in one TCP segment: the per-connection loop must
        # answer them sequentially, never interleaving responses.
        sock.sendall(
            request_bytes("GET", "/healthz")
            + request_bytes("POST", "/schedule", SCHEDULE_BODY)
            + request_bytes("GET", "/nope?x=1")
        )
        rfile = sock.makefile("rb")
        status, _, body = read_response(rfile)
        assert status == 200 and json.loads(body)["status"] == "ok"
        status, _, body = read_response(rfile)
        assert status == 200 and "result" in json.loads(body)
        status, _, body = read_response(rfile)
        assert status == 404
        assert json.loads(body)["error"] == "unknown path '/nope?x=1'"

    def test_malformed_request_line_is_400_and_closes(self, sock):
        sock.sendall(b"GARBAGE\r\n\r\n")
        rfile = sock.makefile("rb")
        status, headers, body = read_response(rfile)
        assert status == 400
        error = assert_json_error_and_close(rfile, headers, body)
        assert "GARBAGE" in error

    @pytest.mark.parametrize("value", ["nope", "-5"])
    def test_bad_content_length_is_400(self, sock, value):
        # The body bytes after the headers are never read: answering and
        # closing keeps them from being parsed as a second request.
        sock.sendall(
            f"POST /schedule HTTP/1.1\r\nContent-Length: {value}\r\n\r\n".encode()
            + b"hello"
        )
        rfile = sock.makefile("rb")
        status, headers, body = read_response(rfile)
        assert status == 400
        error = assert_json_error_and_close(rfile, headers, body)
        assert error == f"bad Content-Length {value!r}"

    def test_chunked_transfer_encoding_is_400(self, sock):
        # The chunk bytes must not come back as a second (stdlib) response.
        sock.sendall(
            b"POST /schedule HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\nhello\r\n0\r\n\r\n"
        )
        rfile = sock.makefile("rb")
        status, headers, body = read_response(rfile)
        assert status == 400
        error = assert_json_error_and_close(rfile, headers, body)
        assert error == "chunked transfer encoding is not supported"

    def test_header_flood_is_rejected_as_json(self, sock):
        flood = "".join(f"X-H{i}: v\r\n" for i in range(300))
        sock.sendall(f"GET /healthz HTTP/1.1\r\n{flood}\r\n".encode())
        rfile = sock.makefile("rb")
        status, headers, body = read_response(rfile)
        assert status == 431  # stdlib's status for more than 100 headers
        error = assert_json_error_and_close(rfile, headers, body)
        assert "headers" in error

    def test_oversized_body_rejected_before_reading_it(self, sock):
        # Only the headers are sent: the 400 must arrive without the server
        # waiting for (or reading) the advertised multi-megabyte body.
        sock.sendall(
            b"POST /schedule HTTP/1.1\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
        )
        status, headers, body = read_response(sock.makefile("rb"))
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(body)["error"] == (
            f"request body larger than {MAX_BODY_BYTES} bytes"
        )

    def test_slow_client_dribbling_bytes_still_served(self, sock):
        # A request trickled in 8-byte chunks must parse identically:
        # readline/readexactly block per fragment, nothing times out or
        # misframes.
        raw = request_bytes("POST", "/schedule", SCHEDULE_BODY)
        for i in range(0, len(raw), 8):
            sock.sendall(raw[i : i + 8])
            time.sleep(0.002)
        status, _, body = read_response(sock.makefile("rb"))
        assert status == 200
        assert "result" in json.loads(body)

    def test_slow_consumer_of_replay_stream_never_blocks_the_server(self, server):
        # A client that dribble-reads a chunked /replay stream through a
        # tiny receive buffer makes the socket's send buffer fill, so the
        # write blocks just this connection's handler thread — the server
        # has to keep answering /healthz the whole time.
        # Reading to the end then proves the backpressure lost no bytes:
        # the stream terminates cleanly and the frames reassemble into the
        # final document's own epochs list.
        import http.client

        body = json.dumps(
            {
                "generate": {
                    "pattern": "poisson",
                    "family": "mixed",
                    "tasks": 48,
                    "procs": 8,
                    "seed": 3,
                },
                "kernel": "barrier",
            }
        ).encode()
        host, port = server.server_address[:2]
        conn = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        conn.settimeout(60)
        conn.connect((host, port))
        try:
            conn.sendall(
                b"POST /replay HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            raw = b""
            probes = 0
            while True:
                data = conn.recv(512)  # dribble: tiny reads, server-side backpressure
                if not data:
                    break
                raw += data
                if raw.endswith(b"0\r\n\r\n"):
                    break
                if len(raw) % 8192 < 512:  # probe the server every ~8 KiB
                    time.sleep(0.005)
                    probe = http.client.HTTPConnection(host, port, timeout=10)
                    probe.request("GET", "/healthz")
                    assert probe.getresponse().status == 200, (
                        "server starved while a slow consumer dribbled"
                    )
                    probe.close()
                    probes += 1
        finally:
            conn.close()
        assert probes > 0, "stream too small to exercise backpressure"
        head, _, chunked = raw.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        frames = []
        while chunked:
            size_line, _, chunked = chunked.partition(b"\r\n")
            size = int(size_line, 16)
            if size == 0:
                break
            frames.append(chunked[:size])
            chunked = chunked[size + 2 :]
        else:
            pytest.fail("stream did not terminate with the zero chunk")
        documents = [json.loads(frame) for frame in frames]
        final = documents[-1]
        assert "result" in final
        assert [doc["epoch"] for doc in documents[:-1]] == final["result"]["epochs"]

    def test_concurrent_connection_soak(self, server):
        # Warm the one payload, then hold 64 concurrent keep-alive
        # connections firing it; every exchange must complete cleanly.
        import http.client

        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port)
        conn.request(
            "POST",
            "/schedule",
            body=SCHEDULE_BODY,
            headers={"Content-Type": "application/json"},
        )
        assert conn.getresponse().read()
        conn.close()
        report = run_soak(
            server.url,
            [SCHEDULE_BODY],
            connections=64,
            requests_per_connection=5,
        )
        assert report["errors"] == 0
        assert report["ok"] + report["rejected"] == 64 * 5
        assert report["ok"] > 0

    def test_shutdown_endpoint_stops_the_serve_loop(self):
        server, thread = start_background_server(allow_shutdown=True)
        try:
            with socket.create_connection(
                server.server_address[:2], timeout=30
            ) as conn:
                conn.sendall(request_bytes("POST", "/shutdown", b"{}"))
                status, _, body = read_response(conn.makefile("rb"))
            assert status == 200
            assert json.loads(body) == {"status": "shutting down"}
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            server.close()
