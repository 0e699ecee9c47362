"""End-to-end trace propagation and metrics across a 2-shard cluster.

One ``X-Repro-Trace-Id`` must yield a single stitched ``/trace/<id>``
document spanning the router's forward hop and the owning shard's
pipeline — through the normal path, the trusted-header fast path, and
the 503 retry path — and the aggregated Prometheus exposition must
parse with exact fleet-wide histogram merges.
"""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

from repro.service.client import ServiceClient, ServiceHTTPError
from repro.service.cluster.router import RouterApp, start_cluster
from repro.service.cluster.supervisor import ClusterSupervisor
from repro.service.cluster.worker import ShardSpec
from repro.service.http import ThreadedTransport
from repro.workloads import uniform_instance

from test_obs import parse_prometheus


@pytest.fixture(scope="class")
def cluster():
    handle = start_cluster(
        2, backend="thread", spec=ShardSpec(workers=2), respawn=False
    )
    yield handle
    handle.close()


@pytest.fixture
def client(cluster):
    return ServiceClient(cluster.url, retries=0)


def spans_by_component(document: dict) -> dict[str, list[str]]:
    return {
        comp["component"]: [s["name"] for s in comp["spans"]]
        for comp in document["components"]
    }


class TestClusterTracePropagation:
    def test_cold_request_stitches_router_and_shard(self, client):
        inst = uniform_instance(num_tasks=12, num_procs=6, seed=41)
        response = client.schedule(inst)
        assert response["cache_hit"] is False
        trace_id = client.last_trace_id
        assert trace_id
        document = client.trace(trace_id)
        assert document["trace_id"] == trace_id
        spans = spans_by_component(document)
        assert spans["router"] == ["route", "forward"]
        (shard_component,) = [c for c in spans if c.startswith("shard-")]
        # Full miss pipeline on the owning shard, in execution order.
        assert spans[shard_component] == [
            "parse",
            "fingerprint",
            "cache_lookup",
            "queue_wait",
            "batch_compute",
            "serialize",
        ]
        # Shard adopted the router's id: one id, one stitched timeline.
        components = {c["component"] for c in document["components"]}
        assert components == {"router", shard_component}
        for comp in document["components"]:
            assert comp["trace_id"] == trace_id

    def test_warm_request_takes_trusted_header_fast_path(self, client):
        inst = uniform_instance(num_tasks=12, num_procs=6, seed=42)
        client.schedule(inst)
        warm = client.schedule(inst)
        assert warm["cache_hit"] is True
        document = client.trace(client.last_trace_id)
        spans = spans_by_component(document)
        (shard_component,) = [c for c in spans if c.startswith("shard-")]
        assert spans[shard_component] == ["fast_hit", "serialize"]
        forward = [
            s
            for c in document["components"]
            if c["component"] == "router"
            for s in c["spans"]
            if s["name"] == "forward"
        ]
        assert forward[0]["meta"]["status"] == 200

    def test_client_supplied_id_is_adopted_end_to_end(self, cluster, client):
        inst = uniform_instance(num_tasks=10, num_procs=4, seed=43)
        external = "feedfacefeedface"
        body = json.dumps(
            {"algorithm": "mrt", "instance": inst.as_dict()}
        ).encode()
        import http.client

        host_port = cluster.url.replace("http://", "")
        conn = http.client.HTTPConnection(host_port, timeout=30)
        try:
            conn.request(
                "POST",
                "/schedule",
                body=body,
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Trace-Id": external,
                },
            )
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("X-Repro-Trace-Id") == external
        finally:
            conn.close()
        spans = spans_by_component(client.trace(external))
        assert "router" in spans
        assert any(c.startswith("shard-") for c in spans)

    def test_span_intervals_nest_inside_the_request(self, client):
        inst = uniform_instance(num_tasks=12, num_procs=6, seed=44)
        start = time.perf_counter()
        client.schedule(inst)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        document = client.trace(client.last_trace_id)
        # The router's traced time is part of what the client waited for.
        (router,) = [c for c in document["components"] if c["component"] == "router"]
        assert router["duration_ms"] <= elapsed_ms * 1.10
        for comp in document["components"]:
            assert comp["duration_ms"] > 0
            for span in comp["spans"]:
                assert span["start_ms"] >= 0.0
                assert span["duration_ms"] >= 0.0
                assert (
                    span["start_ms"] + span["duration_ms"]
                    <= comp["duration_ms"] * 1.10
                )

    def test_unknown_trace_is_404(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client.trace("0000000000000000")
        assert err.value.status == 404

    def test_router_traces_listing(self, client):
        inst = uniform_instance(num_tasks=12, num_procs=6, seed=45)
        client.schedule(inst)
        listing = client.traces()
        assert listing["traces"], "router should list its stored traces"
        assert {"trace_id", "component", "duration_ms"} <= set(
            listing["traces"][0]
        )
        assert listing["slow_ms"] == 500.0
        # An absurdly slow filter keeps the shape but empties the rows.
        assert client.traces(slow_ms=1e9)["traces"] == []

    def test_cluster_prometheus_parses_with_fleet_merge(self, client):
        inst = uniform_instance(num_tasks=12, num_procs=6, seed=46)
        client.schedule(inst)
        client.schedule(inst)
        metrics = client.metrics()
        families = parse_prometheus(client.metrics_prometheus())
        total = families["repro_requests_total"]["samples"]
        # Unlabelled series is the exact fleet sum of the per-shard series.
        per_shard = [
            value
            for sample, value in total.items()
            if 'shard="' in sample
        ]
        assert total["repro_requests_total"] == sum(per_shard)
        assert families["repro_shards"]["samples"]["repro_shards"] == 2.0
        latency = families["repro_request_latency_ms"]["samples"]
        assert (
            latency["repro_request_latency_ms_count"]
            == metrics["cluster"]["latency"]["count"]
        )

    def test_fleet_percentiles_merge_exactly(self, cluster, client):
        inst = uniform_instance(num_tasks=12, num_procs=6, seed=47)
        client.schedule(inst)
        metrics = client.metrics()
        from repro.obs import LatencyHistogram

        merged = LatencyHistogram.merged(
            view["metrics"]["latency"]["histogram"]
            for view in metrics["shards"].values()
            if view["metrics"] is not None
        )
        cluster_block = metrics["cluster"]["latency"]
        assert cluster_block["count"] == merged.count
        assert cluster_block["p50_ms"] == pytest.approx(merged.percentile(50))
        assert cluster_block["p99_ms"] == pytest.approx(merged.percentile(99))


class TestRetryPathTracing:
    def test_503_after_dead_shards_still_yields_a_trace(self):
        supervisor = ClusterSupervisor(
            2,
            spec=ShardSpec(workers=1),
            backend="thread",
            respawn=False,
        ).start()
        server = ThreadedTransport(
            ("127.0.0.1", 0),
            RouterApp(supervisor, forward_retries=1, retry_wait=0.01),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            # Kill the whole fleet: every forward attempt now fails, so the
            # router exhausts its retries and answers 503 — and the trace
            # must record one errored forward span per attempt.
            for handle in supervisor._handles.values():
                handle.stop()
            client = ServiceClient(server.url, retries=0)
            inst = uniform_instance(num_tasks=6, num_procs=4, seed=48)
            with pytest.raises(ServiceHTTPError) as err:
                client.schedule(inst)
            assert err.value.status == 503
            trace_id = client.last_trace_id
            assert trace_id
            document = client.trace(trace_id)
            spans = spans_by_component(document)
            assert set(spans) == {"router"}  # no shard ever saw it
            assert spans["router"] == ["route", "forward", "forward"]
            (router_component,) = document["components"]
            forwards = [
                s for s in router_component["spans"] if s["name"] == "forward"
            ]
            assert [s["meta"]["attempt"] for s in forwards] == [0, 1]
            assert all(s["meta"]["error"] for s in forwards)
            assert client.metrics()["router"]["routing_errors"] >= 2
        finally:
            server.close()
            supervisor.close()

    def test_replay_503_after_dead_shards_matches_schedule(self):
        supervisor = ClusterSupervisor(
            2,
            spec=ShardSpec(workers=1),
            backend="thread",
            respawn=False,
        ).start()
        server = ThreadedTransport(
            ("127.0.0.1", 0),
            RouterApp(supervisor, forward_retries=1, retry_wait=0.01),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            for handle in supervisor._handles.values():
                handle.stop()
            client = ServiceClient(server.url, retries=0)
            errors_before = client.metrics()["router"]["routing_errors"]
            with pytest.raises(ServiceHTTPError) as replay_err:
                client.replay(
                    generate={"pattern": "poisson", "tasks": 4, "procs": 2}
                )
            # One routing error per attempt: the first try plus one retry.
            assert client.metrics()["router"]["routing_errors"] == errors_before + 2
            with pytest.raises(ServiceHTTPError) as schedule_err:
                client.schedule(uniform_instance(num_tasks=6, num_procs=4, seed=49))
            assert replay_err.value.status == schedule_err.value.status == 503
            bodies = [
                re.sub(r"^shard \d+ ", "shard N ", err.value.payload["error"])
                for err in (replay_err, schedule_err)
            ]
            assert bodies == ["shard N unavailable after 2 attempts; retry later"] * 2
        finally:
            server.close()
            supervisor.close()
