"""Tests for the sharded scheduling cluster (repro.service.cluster)."""

from __future__ import annotations

import json
import time
import urllib.request
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ClusterError
from repro.registry import make_scheduler
from repro.service import (
    ReplayStreamError,
    ServiceClient,
    ServiceHTTPError,
    ShardRing,
    ShardSpec,
    canonical_json,
    start_cluster,
)
from repro.service.cluster import KEY_PREFIX_LEN
from repro.service.cluster.router import routing_info
from repro.workloads.generators import make_workload
from test_replay_streaming import scrub


def _keys(count: int, tag: str = "key") -> list[str]:
    """Uniform hex keys shaped like instance fingerprints."""
    return [blake2b(f"{tag}-{i}".encode()).hexdigest() for i in range(count)]


# --------------------------------------------------------------------------- #
# consistent-hash ring
# --------------------------------------------------------------------------- #
class TestShardRing:
    def test_empty_ring_cannot_assign(self):
        with pytest.raises(ClusterError):
            ShardRing().assign("abc")

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRing(vnodes=0)
        ring = ShardRing([0, 1])
        with pytest.raises(ValueError):
            ring.add_node(1)
        with pytest.raises(ValueError):
            ring.remove_node(7)

    def test_membership(self):
        ring = ShardRing([0, 1, 2])
        assert len(ring) == 3 and 1 in ring and 7 not in ring
        ring.remove_node(1)
        assert ring.nodes == frozenset({0, 2})

    def test_assignment_uses_key_prefix(self):
        ring = ShardRing(range(4))
        key = _keys(1)[0]
        assert ring.assign(key) == ring.assign(key[:KEY_PREFIX_LEN] + "different-tail")

    @settings(max_examples=25, deadline=None)
    @given(
        nodes=st.lists(st.integers(0, 31), min_size=1, max_size=8, unique=True),
        seed=st.integers(0, 1000),
        data=st.data(),
    )
    def test_assignment_stable_under_node_set_equality(self, nodes, seed, data):
        """The ring is a pure function of the node *set*, not insertion order."""
        shuffled = data.draw(st.permutations(nodes))
        ring_a = ShardRing(nodes)
        ring_b = ShardRing(shuffled)
        for key in _keys(50, tag=f"stab-{seed}"):
            assert ring_a.assign(key) == ring_b.assign(key)

    @settings(max_examples=10, deadline=None)
    @given(shards=st.integers(2, 8), seed=st.integers(0, 100))
    def test_balanced_within_2x_of_ideal_at_64_vnodes(self, shards, seed):
        ring = ShardRing(range(shards), vnodes=64)
        keys = _keys(2000, tag=f"bal-{seed}")
        spread = ring.spread(keys)
        ideal = len(keys) / shards
        assert max(spread.values()) <= 2.0 * ideal
        # Every shard owns a non-empty slice of a 2000-key space.
        assert len(spread) == shards

    @settings(max_examples=10, deadline=None)
    @given(shards=st.integers(2, 8), seed=st.integers(0, 100))
    def test_adding_a_shard_moves_about_one_over_n_keys(self, shards, seed):
        before = ShardRing(range(shards), vnodes=64)
        after = ShardRing(range(shards + 1), vnodes=64)
        keys = _keys(2000, tag=f"move-{seed}")
        moved = [k for k in keys if before.assign(k) != after.assign(k)]
        # Consistent hashing: survivors never migrate between old shards —
        # every moved key lands on the new shard...
        assert all(after.assign(k) == shards for k in moved)
        # ...and only about 1/(N+1) of the key space moves at all.
        assert len(moved) <= 2.0 * len(keys) / (shards + 1)


# --------------------------------------------------------------------------- #
# router content routing
# --------------------------------------------------------------------------- #
class TestRoutingInfo:
    def test_instance_payload_gets_fast_headers(self):
        inst = make_workload("uniform", 5, 4, seed=0)
        body = json.dumps(
            {"algorithm": "mrt", "instance": inst.as_dict(), "params": {"eps": 0.1}}
        ).encode()
        key, headers = routing_info(body)
        assert key == inst.fingerprint()
        assert headers["X-Repro-Fingerprint"] == inst.fingerprint()
        assert headers["X-Repro-Algorithm"] == "mrt"
        assert headers["X-Repro-Params"] == canonical_json({"eps": 0.1})
        assert headers["X-Repro-Validate"] == "0"

    def test_generate_payload_routes_by_canonical_body(self):
        spec_a = {"generate": {"family": "uniform", "tasks": 4}, "algorithm": "mrt"}
        spec_b = {"algorithm": "mrt", "generate": {"tasks": 4, "family": "uniform"}}
        key_a, headers_a = routing_info(json.dumps(spec_a).encode())
        key_b, _ = routing_info(json.dumps(spec_b).encode())
        assert key_a == key_b  # canonical JSON: key order is irrelevant
        assert key_a.startswith("body:")
        assert headers_a == {}

    def test_undecodable_body_is_routed_not_crashed(self):
        key, headers = routing_info(b"\xff\xfe not json")
        assert key.startswith("raw:") and headers == {}

    def test_ill_typed_algorithm_skips_fast_headers(self):
        inst = make_workload("uniform", 4, 4, seed=1)
        body = json.dumps({"algorithm": 7, "instance": inst.as_dict()}).encode()
        key, headers = routing_info(body)
        assert key == inst.fingerprint() and headers == {}


# --------------------------------------------------------------------------- #
# end-to-end cluster (thread backend: identical wire behaviour, fast startup)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="class")
def cluster():
    handle = start_cluster(
        3,
        backend="thread",
        spec=ShardSpec(workers=2),
        respawn=False,
        allow_shutdown=False,
    )
    yield handle
    handle.close()


@pytest.fixture
def cluster_client(cluster):
    return ServiceClient(cluster.url, retries=0)


class TestClusterEndToEnd:
    def test_healthz_reports_fleet(self, cluster_client):
        health = cluster_client.healthz()
        assert health["status"] == "ok"
        assert health["shards"] == 3 and health["alive"] == 3

    def test_replay_hits_and_matches_direct_scheduler(self, cluster_client):
        instances = [make_workload("mixed", 8, 6, seed=s) for s in range(6)]
        firsts = [cluster_client.schedule(inst) for inst in instances]
        replays = [cluster_client.schedule(inst) for inst in instances]
        assert all(not r["cache_hit"] for r in firsts)
        assert all(r["cache_hit"] for r in replays)
        for inst, first, replay in zip(instances, firsts, replays):
            assert canonical_json(first["result"]) == canonical_json(replay["result"])
            direct = make_scheduler("mrt").schedule(inst)
            assert first["result"]["makespan"] == direct.makespan()
            assert canonical_json(first["result"]["schedule"]) == canonical_json(
                direct.as_dict()
            )

    def test_metrics_aggregate_and_keys_spread(self, cluster_client):
        # Self-contained traffic (fresh seeds): 6 misses + 6 fast-path hits.
        for seed in range(100, 106):
            inst = make_workload("mixed", 8, 6, seed=seed)
            cluster_client.schedule(inst)
            assert cluster_client.schedule(inst)["cache_hit"]
        metrics = cluster_client.metrics()
        cluster_view = metrics["cluster"]
        assert cluster_view["shards"] == 3
        # Satellite: the metrics body carries the rolled-up cache stats.
        for key in ("hits", "misses", "hit_rate", "evictions_lru", "evictions_ttl",
                    "expired_purged", "size"):
            assert key in cluster_view["cache"]
        assert cluster_view["cache"]["hits"] >= 6
        assert cluster_view["fast_hits"] >= 6  # replays served on the fast path
        route_cache = metrics["router"]["route_cache"]
        assert route_cache["hits"] >= 6  # replays skip parse + fingerprint
        per_shard = metrics["router"]["per_shard"]
        assert sum(e["requests"] for e in per_shard.values()) >= 12
        assert len([e for e in per_shard.values() if e["requests"]]) >= 2
        assert metrics["imbalance"]["max_over_ideal"] is not None
        assert set(metrics["shards"]) == {"0", "1", "2"}
        assert all(view["alive"] for view in metrics["shards"].values())

    def test_generate_spec_replay_hits_same_shard_cache(self, cluster_client):
        spec = {"family": "uniform", "tasks": 5, "procs": 4, "seed": 9}
        first = cluster_client.schedule(generate=spec)
        replay = cluster_client.schedule(generate=spec)
        assert not first["cache_hit"] and replay["cache_hit"]
        assert canonical_json(first["result"]) == canonical_json(replay["result"])

    def test_replay_rerun_hits_the_shard_plan_cache(self, cluster_client):
        # The router sends a re-run to the shard that holds its epoch plans.
        generate = {"pattern": "poisson", "family": "mixed", "tasks": 12,
                    "procs": 6, "seed": 3}
        cold = cluster_client.replay(generate=generate)
        hits = cluster_client.metrics()["cluster"]["plan_cache"]["hits"]
        warm = cluster_client.replay(generate=generate)
        assert scrub(warm) == scrub(cold)
        assert cluster_client.metrics()["cluster"]["plan_cache"]["hits"] > hits

    def test_malformed_request_is_400_from_owning_shard(self, cluster_client):
        with pytest.raises(ServiceHTTPError) as err:
            cluster_client.schedule_payload({"nonsense": True})
        assert err.value.status == 400
        with pytest.raises(ServiceHTTPError) as err:
            cluster_client.schedule_payload({"instance": {"num_procs": 0, "tasks": []}})
        assert err.value.status == 400

    def test_unknown_path_is_404(self, cluster_client):
        with pytest.raises(ServiceHTTPError) as err:
            cluster_client._request("/nope")
        assert err.value.status == 404

    def test_shutdown_forbidden_when_disabled(self, cluster_client):
        with pytest.raises(ServiceHTTPError) as err:
            cluster_client.shutdown()
        assert err.value.status == 403

    def test_purge_message_fans_out(self, cluster):
        # Runs last in its own cluster-wide namespace: wipe everything and
        # verify the next replay is a miss again (shared-nothing eviction).
        client = ServiceClient(cluster.url, retries=0)
        inst = make_workload("heavy-tailed", 6, 4, seed=42)
        client.schedule(inst)
        assert client.schedule(inst)["cache_hit"]
        report = client.purge(all=True)
        assert set(report["shards"]) == {"0", "1", "2"}
        assert report["cleared"] >= 1
        assert client.schedule(inst)["cache_hit"] is False


# --------------------------------------------------------------------------- #
# supervisor respawn (process backend where the sandbox allows it)
# --------------------------------------------------------------------------- #
class TestRespawn:
    def test_killed_shard_is_respawned_and_traffic_recovers(self):
        handle = start_cluster(2, backend="process", spec=ShardSpec(workers=2))
        try:
            if handle.supervisor.backend != "process":
                pytest.skip("process backend unavailable in this sandbox")
            client = ServiceClient(handle.url)  # default retries absorb the gap
            inst = make_workload("mixed", 6, 4, seed=3)
            assert client.schedule(inst)["result"]["makespan"] > 0
            for shard in handle.supervisor._handles.values():
                shard.process.kill()
            deadline = time.monotonic() + 20.0
            while handle.supervisor.respawns < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert handle.supervisor.respawns >= 2, "monitor never respawned shards"
            # The replacement shard starts cold (its cache slice died with
            # the process) but traffic flows again.
            response = client.schedule(inst)
            assert response["result"]["makespan"] > 0
            assert handle.supervisor.alive_count() == 2
        finally:
            handle.close()


class TestFanOutClosesClients:
    def test_every_fan_out_closes_the_clients_it_opens(self, monkeypatch):
        """Each fan-out opens one client per shard; leaving them open would
        leave one keep-alive socket per shard for the garbage collector."""
        from repro.service.cluster import supervisor as supervisor_module

        opened: list[ServiceClient] = []
        closed: list[ServiceClient] = []

        class CountingClient(ServiceClient):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                opened.append(self)

            def close(self) -> None:
                closed.append(self)
                super().close()

        monkeypatch.setattr(supervisor_module, "ServiceClient", CountingClient)
        fleet = supervisor_module.ClusterSupervisor(
            2, spec=ShardSpec(workers=2), backend="thread", respawn=False
        ).start()
        try:
            assert all(fleet.shard_metrics().values())
            assert all(fleet.purge_all(all=True).values())
            assert fleet.gather_trace_components("x") == []
        finally:
            fleet.close()
        assert len(opened) == 3 * 2
        assert sorted(map(id, closed)) == sorted(map(id, opened))


# --------------------------------------------------------------------------- #
# thread-backend liveness detection (no subprocess required)
# --------------------------------------------------------------------------- #
class TestThreadBackendRespawn:
    def test_dead_thread_shard_is_respawned(self):
        handle = start_cluster(2, backend="thread", spec=ShardSpec(workers=2))
        try:
            victim = handle.supervisor._handles[0]
            victim._server.close()  # simulate a crash: serve loop exits
            deadline = time.monotonic() + 20.0
            while handle.supervisor.respawns < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert handle.supervisor.respawns >= 1
            client = ServiceClient(handle.url)
            inst = make_workload("uniform", 5, 4, seed=8)
            assert client.schedule(inst)["result"]["makespan"] > 0
            # /healthz may serve the monitor's cached document for up to
            # health_interval; the respawned fleet must read ok again.
            deadline = time.monotonic() + 20.0
            health = client.healthz()
            while health["status"] != "ok" and time.monotonic() < deadline:
                time.sleep(0.1)
                health = client.healthz()
            assert health["status"] == "ok" and health["alive"] == 2, health
        finally:
            handle.close()


# --------------------------------------------------------------------------- #
# client 503 retry with capped jittered backoff
# --------------------------------------------------------------------------- #
class TestClientRetries:
    @pytest.fixture
    def flaky_server(self):
        """HTTP stub that 503s the first two POSTs, then 200s.

        ``/replay`` answers its 200 as a chunked NDJSON stream (one epoch
        frame, then the final document); ``/cut/replay`` always streams one
        epoch frame and closes the connection before the final document.
        """
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            hits = {"count": 0}

            def log_message(self, *args):  # noqa: A002
                pass

            def stream(self, *frames: bytes) -> None:
                self.send_response(200)
                self.send_header("Content-Type", "application/x-ndjson")
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                for frame in frames:
                    self.wfile.write(b"%x\r\n%s\r\n" % (len(frame), frame))

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0) or 0))
                epoch = b'{"epoch": {"index": 0}}\n'
                if self.path == "/cut/replay":
                    self.stream(epoch)  # no final document, no zero chunk
                    return
                Handler.hits["count"] += 1
                if Handler.hits["count"] <= 2:
                    body = json.dumps({"error": "overloaded; retry later"}).encode()
                    self.send_response(503)
                elif self.path == "/replay":
                    self.stream(epoch, b'{"result": {"makespan": 1.0}}\n')
                    self.wfile.write(b"0\r\n\r\n")  # the terminating chunk
                    return
                else:
                    body = json.dumps({"ok": True}).encode()
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server, Handler.hits
        server.shutdown()
        server.server_close()

    def test_retries_absorb_503s(self, flaky_server):
        server, hits = flaky_server
        host, port = server.server_address[:2]
        client = ServiceClient(
            f"http://{host}:{port}", retries=3, backoff=0.01, backoff_cap=0.05
        )
        assert client.schedule_payload({"x": 1}) == {"ok": True}
        assert hits["count"] == 3
        assert client.retries_total == 2

    def test_zero_retries_fail_fast(self, flaky_server):
        server, hits = flaky_server
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", retries=0)
        with pytest.raises(ServiceHTTPError) as err:
            client.schedule_payload({"x": 1})
        assert err.value.status == 503
        assert hits["count"] == 1 and client.retries_total == 0

    def test_replay_retries_503s_before_the_first_frame(self, flaky_server):
        server, hits = flaky_server
        host, port = server.server_address[:2]
        client = ServiceClient(
            f"http://{host}:{port}", retries=3, backoff=0.01, backoff_cap=0.05
        )
        epochs = []
        final = client.replay(generate={"tasks": 3}, on_epoch=epochs.append)
        assert final == {"result": {"makespan": 1.0}}
        assert epochs == [{"index": 0}]
        assert hits["count"] == 3
        assert client.retries_total == 2

    def test_replay_stream_cut_before_final_document_raises(self, flaky_server):
        server, hits = flaky_server
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}/cut", retries=3)
        epochs = []
        with pytest.raises(ReplayStreamError):
            client.replay(generate={"tasks": 3}, on_epoch=epochs.append)
        assert epochs == [{"index": 0}]
        assert client.retries_total == 0

    def test_retry_config_validation(self):
        with pytest.raises(ValueError):
            ServiceClient("http://x", retries=-1)
        with pytest.raises(ValueError):
            ServiceClient("http://x", backoff=0.0)


# --------------------------------------------------------------------------- #
# shard fast path over raw HTTP (trusted headers)
# --------------------------------------------------------------------------- #
class TestShardFastPath:
    def test_fast_headers_hit_without_body_parse(self):
        from repro.service import SchedulerService
        from repro.service.http import ThreadedTransport
        from repro.service.server import DaemonApp
        import threading

        service = SchedulerService(workers=2)
        server = ThreadedTransport(
            ("127.0.0.1", 0), DaemonApp(service, trust_fast_headers=True)
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}/schedule"
            inst = make_workload("mixed", 6, 5, seed=21)
            body = json.dumps({"algorithm": "mrt", "instance": inst.as_dict()}).encode()
            headers = {
                "Content-Type": "application/json",
                "X-Repro-Fingerprint": inst.fingerprint(),
                "X-Repro-Algorithm": "mrt",
                "X-Repro-Params": "{}",
                "X-Repro-Validate": "0",
            }

            def post(with_headers: bool) -> dict:
                request = urllib.request.Request(
                    url, data=body, headers=headers if with_headers else {}
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    return json.loads(response.read())

            # Cold probe with trusted headers: MISS falls through to the
            # full pipeline (the body is parsed, the request computed).
            first = post(with_headers=True)
            assert first["cache_hit"] is False
            assert service.metrics()["fast_hits"] == 0
            # Warm probe: served from the handler thread.
            replay = post(with_headers=True)
            assert replay["cache_hit"] is True
            assert canonical_json(first["result"]) == canonical_json(replay["result"])
            assert service.metrics()["fast_hits"] == 1
            # A fast-path miss must not double-count misses in the stats.
            assert service.cache.stats.misses == 1
        finally:
            server.close()

    def test_headers_ignored_without_trust(self):
        from repro.service import start_background_server

        server, _ = start_background_server()  # trust_fast_headers defaults off
        try:
            host, port = server.server_address[:2]
            inst = make_workload("uniform", 5, 4, seed=22)
            client = ServiceClient(f"http://{host}:{port}")
            client.schedule(inst)
            body = json.dumps({"algorithm": "mrt", "instance": inst.as_dict()}).encode()
            request = urllib.request.Request(
                f"http://{host}:{port}/schedule",
                data=body,
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Fingerprint": inst.fingerprint(),
                },
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                replay = json.loads(response.read())
            assert replay["cache_hit"] is True  # normal dispatcher hit
            assert server.app.service.metrics()["fast_hits"] == 0
        finally:
            server.close()
