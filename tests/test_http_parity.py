"""Wire-level parity audits across apps.

The invariant of the transport/app split, checked over raw sockets:

* **Daemon/router parity** — every shared error path (unknown path, bad
  query, bad body, disabled shutdown, ...) answers the same 4xx from the
  single-process daemon and the cluster router, because both are the same
  ``App`` machinery.  This pins the fix for the historical drift where the
  two frontends disagreed on ``Content-Length: 0`` and duplicated headers
  on error responses.

Every response is additionally audited structurally: header names unique,
``Content-Length`` present and equal to the body length.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.service import start_background_server
from repro.service.cluster import ShardSpec, start_cluster

SCHEDULE_BODY = json.dumps(
    {
        "algorithm": "mrt",
        "generate": {"family": "uniform", "tasks": 4, "procs": 2, "seed": 0},
    }
).encode()

#: A valid two-task instance payload (the ``Instance.as_dict`` shape).
TINY_INSTANCE = {
    "num_procs": 2,
    "tasks": [
        {"name": "T0", "times": [6.0, 3.5]},
        {"name": "T1", "times": [3.0, 2.0]},
    ],
}

#: A third task, bad in one field, after two good ones (raw JSON: ``1e999``
#: decodes to an infinite time).  The 400 must name it on both frontends.
BAD_LATER_TASKS = [
    ("nonfinite-time", '{"name": "T2", "times": [1e999, 1.0]}'),
    ("nonpositive-time", '{"name": "T2", "times": [2.0, 0.0]}'),
    ("negative-release", '{"name": "T2", "times": [2.0, 1.0], "release": -1.0}'),
]


#: (label, top-level fields, ``generate`` fields) a parser used to coerce
#: into a 200: ``bool("no")`` is True, ``int(2.5)`` is 2, ``true`` is 1.
LOOSE_FIELDS = [
    ("validate-string", {"validate": "no"}, {}),
    ("validate-int", {"validate": 1}, {}),
    ("tasks-bool", {}, {"tasks": True}),
    ("procs-string", {}, {"procs": "2"}),
    ("procs-float", {}, {"procs": 2.5}),
    ("seed-float", {}, {"seed": 1.9}),
]


def with_bad_later_task(bad_task: str) -> str:
    good = ", ".join(json.dumps(task) for task in TINY_INSTANCE["tasks"])
    return f'{{"num_procs": 2, "tasks": [{good}, {bad_task}]}}'


#: (name, method, target, body) — every deterministic shared path: the
#: error surface of both apps plus the disabled-shutdown 403.
ERROR_REQUESTS = [
    ("unknown-path", "GET", "/nope?x=1", b""),
    ("unknown-trace", "GET", "/trace/deadbeef", b""),
    ("bad-history-query", "GET", "/metrics/history?window=abc", b""),
    ("bad-slow-ms", "GET", "/traces?slow_ms=abc", b""),
    ("empty-schedule", "POST", "/schedule", b""),
    ("malformed-schedule", "POST", "/schedule", b'{"nonsense": true}'),
    ("schedule-not-json", "POST", "/schedule", b"not json at all"),
    # Algorithm names no HTTP header can carry verbatim: the router must
    # route them by content and leave the 400 to the shard's parser.
    ("schedule-non-latin1-algorithm", "POST", "/schedule", json.dumps(
        {"algorithm": "模型", "instance": TINY_INSTANCE}
    ).encode()),
    ("schedule-crlf-algorithm", "POST", "/schedule", json.dumps(
        {"algorithm": "mrt\r\nX-Injected: 1", "instance": TINY_INSTANCE}
    ).encode()),
    ("malformed-replay", "POST", "/replay", b'{"nonsense": true}'),
    ("replay-not-json", "POST", "/replay", b"not json at all"),
    ("replay-bad-kernel", "POST", "/replay", json.dumps(
        {"generate": {"tasks": 3, "procs": 2}, "kernel": "nope"}
    ).encode()),
    # Clients that still name the deleted second kernel get the documented 400.
    ("replay-availability-kernel", "POST", "/replay", json.dumps(
        {"generate": {"tasks": 3, "procs": 2}, "kernel": "availability"}
    ).encode()),
    # A non-finite quantum would stream NaN/Infinity tokens (not JSON) and
    # start the second epoch at t = inf.  Python's json takes the bare
    # tokens, so they must get the same 400 as the strings.
    *[
        (f"replay-quantum-{label}", "POST", "/replay",
         b'{"generate": {"tasks": 3, "procs": 2}, "quantum": ' + quantum + b"}")
        for label, quantum in (
            ("inf", b'"inf"'), ("nan-string", b'"nan"'), ("nan-token", b"NaN"),
            ("infinity-token", b"Infinity"),
            ("minus-infinity-token", b"-Infinity"),
        )
    ],
    # A bad eps is rejected when the scheduler is built, so /replay answers
    # before its stream starts instead of a 200 cut short at the first epoch.
    *[
        (f"{path[1:]}-eps-{label}", "POST", path,
         json.dumps({**work, "params": {"eps": eps}}).encode())
        for path, work in (
            ("/schedule", {"instance": TINY_INSTANCE}),
            ("/replay", {"generate": {"tasks": 3, "procs": 2}}),
        )
        for label, eps in (("negative", -1), ("zero", 0), ("string", "x"))
    ],
    *[
        (f"{path[1:]}-third-task-{label}", "POST", path,
         f'{{"{key}": {with_bad_later_task(task)}}}'.encode())
        for path, key in (("/schedule", "instance"), ("/replay", "trace"))
        for label, task in BAD_LATER_TASKS
    ],
    # Loosely typed scalars are a 400, not a coercion, on every parser.
    *[
        (f"{path[1:]}-loose-{label}", "POST", path, json.dumps(
            {**fields, "generate": {**spec, "tasks": 3, "procs": 2, **loose}}
        ).encode())
        for path, spec in (("/schedule", {"family": "uniform"}), ("/replay", {}))
        for label, fields, loose in LOOSE_FIELDS
    ],
    ("replay-quantum-bool", "POST", "/replay", json.dumps(
        {"generate": {"tasks": 3, "procs": 2}, "quantum": True}
    ).encode()),
    # An instance body with a non-boolean validate must not reach a shard
    # with the router's precomputed cache-key headers.
    ("schedule-instance-validate-string", "POST", "/schedule", json.dumps(
        {"instance": TINY_INSTANCE, "validate": "false"}
    ).encode()),
    # Payloads the fast fingerprint used to take although the instance
    # cannot be built: they answered 500 from the compute path.
    ("schedule-task-without-name", "POST", "/schedule", json.dumps(
        {"instance": {"num_procs": 2, "tasks": [{"times": [2.0, 1.0]}]}}
    ).encode()),
    ("schedule-string-num-procs", "POST", "/schedule", json.dumps(
        {"instance": {**TINY_INSTANCE, "num_procs": "2"}}
    ).encode()),
    ("purge-not-json", "POST", "/purge", b"not json"),
    ("shutdown-disabled", "POST", "/shutdown", b"{}"),
    ("unknown-method", "PUT", "/healthz", b""),
]

#: Headers that legitimately differ run-to-run or frontend-to-frontend.
VOLATILE_HEADERS = frozenset({"date", "server", "x-repro-trace-id"})


def exchange(address, method: str, target: str, body: bytes):
    """One request on a fresh connection; returns (status, headers, body).

    ``headers`` is the ordered list of ``(lowercased-name, value)`` pairs as
    they appeared on the wire — duplicates preserved, so the structural
    audit can see them.
    """
    head = f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
    if body or method in ("POST", "PUT"):
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    with socket.create_connection(address, timeout=30) as conn:
        conn.sendall(head.encode() + b"\r\n" + body)
        rfile = conn.makefile("rb")
        status_line = rfile.readline()
        assert status_line, "server closed the connection before responding"
        status = int(status_line.split()[1])
        headers: list[tuple[str, str]] = []
        while True:
            line = rfile.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode().partition(":")
            headers.append((name.strip().lower(), value.strip()))
        length = next(
            (int(v) for n, v in headers if n == "content-length"), 0
        )
        payload = rfile.read(length)
    return status, headers, payload


def audit_structure(name, status, headers, payload):
    """Every response: unique header names, honest Content-Length."""
    names = [n for n, _ in headers]
    assert len(names) == len(set(names)), f"{name}: duplicate headers {names}"
    lengths = [v for n, v in headers if n == "content-length"]
    assert lengths, f"{name}: response has no Content-Length"
    assert int(lengths[0]) == len(payload), f"{name}: Content-Length lies"


def comparable(headers):
    return sorted((n, v) for n, v in headers if n not in VOLATILE_HEADERS)


@pytest.fixture(scope="class")
def daemon_and_router():
    server, _ = start_background_server(allow_shutdown=False)
    cluster = start_cluster(
        1,
        backend="thread",
        spec=ShardSpec(workers=2),
        respawn=False,
        allow_shutdown=False,
    )
    yield server, cluster
    server.close()
    cluster.close()


class TestDaemonRouterParity:
    @pytest.mark.parametrize(
        "name,method,target,body",
        ERROR_REQUESTS,
        ids=[r[0] for r in ERROR_REQUESTS],
    )
    def test_error_paths_identical(self, daemon_and_router, name, method, target, body):
        server, cluster = daemon_and_router
        results = {}
        for which, address in (
            ("daemon", server.server_address[:2]),
            ("router", cluster.server.server_address[:2]),
        ):
            status, headers, payload = exchange(address, method, target, body)
            audit_structure(f"{which}:{name}", status, headers, payload)
            results[which] = (status, comparable(headers), payload)
        assert results["daemon"] == results["router"]
        assert 400 <= results["router"][0] < 500, results["router"]

    @pytest.mark.parametrize(
        "name,method,target,body",
        [r for r in ERROR_REQUESTS if "-third-task-" in r[0]],
        ids=[r[0] for r in ERROR_REQUESTS if "-third-task-" in r[0]],
    )
    def test_a_bad_later_task_is_named(self, daemon_and_router, name, method, target, body):
        server, _ = daemon_and_router
        status, _, payload = exchange(server.server_address[:2], method, target, body)
        assert status == 400
        assert b"task 'T2': " in payload, payload

    def test_schedule_success_identical_modulo_elapsed(self, daemon_and_router):
        server, cluster = daemon_and_router
        results = {}
        for which, address in (
            ("daemon", server.server_address[:2]),
            ("router", cluster.server.server_address[:2]),
        ):
            status, headers, payload = exchange(
                address, "POST", "/schedule", SCHEDULE_BODY
            )
            audit_structure(f"{which}:schedule", status, headers, payload)
            # The trace id value is random per request; its presence is not.
            assert any(n == "x-repro-trace-id" for n, _ in headers), which
            document = json.loads(payload)
            document.pop("elapsed_ms")
            results[which] = (status, document)
        assert results["daemon"] == results["router"]

    def test_instance_and_generate_rejected_after_instance_is_cached(
        self, daemon_and_router
    ):
        # Once the instance is a cache hit, the router's precomputed cache
        # key must not turn a body the daemon rejects into a fast 200.
        server, cluster = daemon_and_router
        prime = json.dumps({"algorithm": "mrt", "instance": TINY_INSTANCE}).encode()
        both = json.dumps(
            {
                "algorithm": "mrt",
                "instance": TINY_INSTANCE,
                "generate": {"family": "uniform", "tasks": 2, "procs": 2},
            }
        ).encode()
        results = {}
        for which, address in (
            ("daemon", server.server_address[:2]),
            ("router", cluster.server.server_address[:2]),
        ):
            for _ in range(2):  # cold, then a warm hit
                status, _, payload = exchange(address, "POST", "/schedule", prime)
                assert status == 200, payload
            assert json.loads(payload)["cache_hit"] is True
            status, headers, payload = exchange(address, "POST", "/schedule", both)
            audit_structure(f"{which}:both", status, headers, payload)
            results[which] = (status, comparable(headers), payload)
        assert results["daemon"] == results["router"]
        assert results["router"][0] == 400
        assert b"exactly one of 'instance' or 'generate'" in results["router"][2]

    def test_loose_validate_rejected_after_instance_is_cached(
        self, daemon_and_router
    ):
        # A shard answers a cached hit from the router's headers alone, so
        # the router must not send them for a validate the daemon rejects.
        server, cluster = daemon_and_router
        prime = json.dumps(
            {"algorithm": "mrt", "instance": TINY_INSTANCE, "validate": True}
        ).encode()
        loose = json.dumps(
            {"algorithm": "mrt", "instance": TINY_INSTANCE, "validate": "yes"}
        ).encode()
        results = {}
        for which, address in (
            ("daemon", server.server_address[:2]),
            ("router", cluster.server.server_address[:2]),
        ):
            for _ in range(2):  # cold, then a warm hit
                status, _, payload = exchange(address, "POST", "/schedule", prime)
                assert status == 200, payload
            assert json.loads(payload)["cache_hit"] is True
            status, headers, payload = exchange(address, "POST", "/schedule", loose)
            audit_structure(f"{which}:loose", status, headers, payload)
            results[which] = (status, comparable(headers), payload)
        assert results["daemon"] == results["router"]
        assert results["router"][0] == 400
        assert b"'validate' must be a boolean" in results["router"][2]


# ---------------------------------------------------------------------- #
# Chunked-response parity (streamed POST /replay)
# ---------------------------------------------------------------------- #

REPLAY_BODY = json.dumps(
    {
        "generate": {
            "pattern": "pareto",
            "family": "mixed",
            "tasks": 10,
            "procs": 4,
            "seed": 17,
        },
        "kernel": "barrier",
        "validate": True,
    }
).encode()


def exchange_stream(address, body: bytes, target: str = "/replay"):
    """One streamed POST on a fresh connection.

    Returns ``(status, headers, frames, terminated)`` where ``frames`` is
    the list of chunk payloads exactly as framed on the wire (one element
    per ``Transfer-Encoding: chunked`` chunk — chunk boundaries are part of
    the protocol: one NDJSON line per chunk) and ``terminated`` says whether
    the terminating zero-length chunk arrived.  A non-chunked response
    (e.g. a pre-stream 400) comes back as a single pseudo-frame with
    ``terminated=True``.
    """
    head = (
        f"POST {target} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    with socket.create_connection(address, timeout=60) as conn:
        conn.sendall(head.encode() + body)
        rfile = conn.makefile("rb")
        status_line = rfile.readline()
        assert status_line, "server closed the connection before responding"
        status = int(status_line.split()[1])
        headers: list[tuple[str, str]] = []
        while True:
            line = rfile.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode().partition(":")
            headers.append((name.strip().lower(), value.strip()))
        if not any(n == "transfer-encoding" for n, _ in headers):
            length = next((int(v) for n, v in headers if n == "content-length"), 0)
            return status, headers, [rfile.read(length)], True
        frames: list[bytes] = []
        terminated = False
        while True:
            size_line = rfile.readline()
            if not size_line:
                break  # connection closed mid-stream: truncation
            size = int(size_line.strip(), 16)
            if size == 0:
                terminated = True
                rfile.readline()  # trailing CRLF of the last-chunk
                break
            chunk = rfile.read(size + 2)
            if len(chunk) < size + 2 or not chunk.endswith(b"\r\n"):
                break  # truncated inside a chunk
            frames.append(chunk[:-2])
    return status, headers, frames, terminated


def audit_stream_structure(name, headers, frames):
    """Streamed responses: unique headers, chunked framing, no
    Content-Length, NDJSON chunks — exactly one JSON line per chunk."""
    names = [n for n, _ in headers]
    assert len(names) == len(set(names)), f"{name}: duplicate headers {names}"
    assert ("transfer-encoding", "chunked") in headers, f"{name}: not chunked"
    assert "content-length" not in names, f"{name}: chunked AND Content-Length"
    content_type = next(v for n, v in headers if n == "content-type")
    assert content_type == "application/x-ndjson", f"{name}: {content_type}"
    for frame in frames:
        assert frame.endswith(b"\n") and frame.count(b"\n") == 1, (
            f"{name}: chunk is not one NDJSON line: {frame[:80]!r}"
        )
        json.loads(frame)


def comparable_frames(frames):
    """Frame payloads with the wall-clock fields zeroed, boundaries kept."""
    documents = [json.loads(frame) for frame in frames]
    for document in documents:
        document.pop("elapsed_ms", None)
        if "epoch" in document:
            document["epoch"]["compute_ms"] = 0.0
        if "result" in document:
            document["result"]["compute_ms"] = 0.0
            for epoch in document["result"]["epochs"]:
                epoch["compute_ms"] = 0.0
    return documents


class TestStreamedReplayParity:
    def test_daemon_router_stream_identical(self, daemon_and_router):
        """The router relays the shard's chunk stream frame-for-frame: same
        boundaries, same payloads, same terminating chunk."""
        server, cluster = daemon_and_router
        results = {}
        for which, address in (
            ("daemon", server.server_address[:2]),
            ("router", cluster.server.server_address[:2]),
        ):
            status, headers, frames, terminated = exchange_stream(
                address, REPLAY_BODY
            )
            assert status == 200 and terminated, f"{which}: broken stream"
            audit_stream_structure(f"{which}:replay", headers, frames)
            results[which] = (
                status,
                comparable(headers),
                comparable_frames(frames),
            )
        assert results["daemon"] == results["router"]

    def test_stream_epochs_match_final_document(self, daemon_and_router):
        """Protocol shape: every frame but the last is {"epoch": ...}, the
        last is the full response whose epochs ARE the streamed frames."""
        server, _ = daemon_and_router
        _, _, frames, _ = exchange_stream(server.server_address[:2], REPLAY_BODY)
        documents = [json.loads(frame) for frame in frames]
        assert all("epoch" in doc for doc in documents[:-1])
        final = documents[-1]
        assert final["result"]["epochs"] == [doc["epoch"] for doc in documents[:-1]]
        assert final["validation"] is not None


class TestErrorMidStream:
    """A kernel failure AFTER frames have been sent cannot be turned into an
    HTTP error (the 200 and the early chunks are already on the wire).  The
    pinned contract: the server aborts the chunked stream WITHOUT the
    terminating zero chunk and closes the connection — truncation is the
    client's only error signal — and the router relays it as is."""

    @pytest.fixture(scope="class")
    def boom_payload(self):
        """Register a scheduler that fails on single-task batches and build
        a trace (releases 0, 0, 5) whose SECOND epoch is single-task: one
        epoch frame streams, then the kernel dies."""
        from repro.core.mrt import MRTScheduler
        from repro.registry import ALGORITHMS
        from repro.workloads.generators import make_workload

        class BoomScheduler:
            def __init__(self):
                self._inner = MRTScheduler()

            def schedule(self, batch):
                if batch.num_tasks == 1:
                    raise RuntimeError("mid-stream kernel failure (test)")
                return self._inner.schedule(batch)

        ALGORITHMS["boom-mid"] = BoomScheduler
        trace = make_workload("uniform", 3, 4, seed=0).with_releases(
            [0.0, 0.0, 5.0]
        )
        yield json.dumps(
            {"trace": trace.as_dict(), "algorithm": "boom-mid"}
        ).encode()
        del ALGORITHMS["boom-mid"]

    def test_daemon_truncates_the_stream(self, daemon_and_router, boom_payload):
        server, _ = daemon_and_router
        status, headers, frames, terminated = exchange_stream(
            server.server_address[:2], boom_payload
        )
        assert status == 200, "error raced the first frame"
        assert not terminated, "stream terminated cleanly!"
        audit_stream_structure("daemon:boom", headers, frames)
        documents = [json.loads(frame) for frame in frames]
        assert documents, "no epoch frame before the error"
        assert all("epoch" in doc for doc in documents), (
            "a final document leaked after the failure"
        )

    def test_router_relays_the_truncation(self, daemon_and_router, boom_payload):
        server, cluster = daemon_and_router
        results = {}
        for which, address in (
            ("daemon", server.server_address[:2]),
            ("router", cluster.server.server_address[:2]),
        ):
            status, headers, frames, terminated = exchange_stream(
                address, boom_payload
            )
            assert status == 200 and not terminated, f"{which}: not truncated"
            documents = [json.loads(frame) for frame in frames]
            assert documents and all("epoch" in doc for doc in documents)
            results[which] = (status, comparable_frames(frames))
        assert results["daemon"] == results["router"]
