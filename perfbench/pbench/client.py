"""One keep-alive HTTP/1.1 connection, timed at the client.

Deliberately independent of ``repro.service.client``: the benchmark must
not speed up or slow down when the program's own client code changes.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Reply:
    """One request as the client saw it (``perf_counter`` seconds)."""

    index: int
    start: float
    first: float  # response head for /schedule, first epoch frame for /replay
    end: float  # last byte (for a stream: the terminating chunk)
    status: int
    body: bytes = b""
    frames: list[bytes] = field(default_factory=list)
    complete: bool = True
    trace_id: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def first_ms(self) -> float:
        return (self.first - self.start) * 1e3

    @property
    def nbytes(self) -> int:
        return len(self.body) + sum(len(frame) for frame in self.frames)


class Client:
    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.conn = self._connect()

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def reconnect(self) -> None:
        self.conn.close()
        self.conn = self._connect()

    def close(self) -> None:
        self.conn.close()

    def post(self, index: int, path: str, body: bytes) -> Reply:
        """POST and read the whole body; a transport error is a failed reply."""
        start = time.perf_counter()
        try:
            self.conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            first = time.perf_counter()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.reconnect()
            now = time.perf_counter()
            return Reply(index, start, now, now, 0, complete=False)
        end = time.perf_counter()
        return Reply(
            index, start, first, end, response.status, body=data,
            trace_id=response.getheader("X-Repro-Trace-Id"),
        )

    def stream(self, index: int, path: str, body: bytes) -> Reply:
        """POST and read an NDJSON stream frame by frame.

        ``read1`` raises on a stream cut before its terminating zero chunk
        and returns ``b""`` only after a clean end, so ``complete`` is
        false exactly when the stream was truncated.
        """
        start = time.perf_counter()
        frames: list[bytes] = []
        first = 0.0
        status = 0
        try:
            self.conn.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json", "Accept": "application/x-ndjson"},
            )
            response = self.conn.getresponse()
            status = response.status
            buffer = b""
            while True:
                data = response.read1(65536)
                if not data:
                    break
                buffer += data
                while (newline := buffer.find(b"\n")) >= 0:
                    frames.append(buffer[: newline + 1])
                    buffer = buffer[newline + 1 :]
                    if not first:
                        first = time.perf_counter()
            complete = not buffer
        except (OSError, http.client.HTTPException):
            self.reconnect()
            complete = False
        end = time.perf_counter()
        return Reply(index, start, first or end, end, status, frames=frames, complete=complete)

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}: {data[:200]!r}")
        return json.loads(data)
