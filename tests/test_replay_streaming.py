"""Streamed ``POST /replay`` differential suite + per-epoch plan cache.

The streaming pipeline rewrites how replay results reach clients (the
kernel's epoch generator → NDJSON chunk stream, one frame per epoch, no
epoch computed ahead of its frame), and the plan
cache rewrites how epochs are scheduled on a warm shard (content-addressed
plan replay instead of a fresh dichotomic search).  Both must be invisible
in the payload bytes, so this suite pins:

(a) on random poisson/burst/pareto traces (hypothesis), the streamed
    ``{"epoch": ...}`` frames are exactly the ``epochs`` list of the final
    frame, and the final frame *is* the legacy synchronous response —
    timing fields are the only permitted difference;
(b) a plan-cache-warm replay is byte-identical to a cold one (again modulo
    ``compute_ms``/``elapsed_ms``), with hit/miss/eviction accounting to
    prove the cache was actually exercised;
(c) plan keys are order-sensitive and kernel-agnostic (their digest is
    pinned by a golden value in ``tests/test_contracts.py``);
(d) the daemon endpoint streams the same bytes the in-process generator
    yields, and ``ServiceClient.replay`` reassembles them faithfully.
"""

from __future__ import annotations

import copy
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.online import (
    CachedPlan,
    EpochRescheduler,
    PlanCache,
    compute_replay_response,
    iter_replay_frames,
)
from repro.online.plancache import PLAN_MISS, plan_key
from repro.registry import make_rescheduler
from repro.workloads.arrivals import make_trace
from repro.workloads.generators import WORKLOAD_FAMILIES

FAMILIES = sorted(WORKLOAD_FAMILIES)

random_traces = st.builds(
    make_trace,
    st.sampled_from(["poisson", "burst", "pareto"]),
    st.sampled_from(FAMILIES),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)


def scrub(document: dict) -> dict:
    """Zero the wall-clock fields — everything else must be byte-stable."""
    doc = copy.deepcopy(document)
    doc.pop("elapsed_ms", None)
    if "result" in doc:
        doc["result"]["compute_ms"] = 0.0
        for epoch in doc["result"]["epochs"]:
            epoch["compute_ms"] = 0.0
    return doc


def drain(trace, rescheduler, validate=False) -> tuple[list[dict], dict]:
    """Consume ``iter_replay_frames`` → (epoch frames, final document)."""
    documents = [
        json.loads(line) for line in iter_replay_frames(trace, rescheduler, validate)
    ]
    assert all("epoch" in doc for doc in documents[:-1])
    assert "result" in documents[-1]
    return [doc["epoch"] for doc in documents[:-1]], documents[-1]


class TestStreamedFramesMatchKernel:
    @given(trace=random_traces)
    @settings(max_examples=20, deadline=None)
    def test_frames_are_the_final_documents_epochs_bit_exactly(self, trace):
        """(a) No scrubbing here: frames and final doc come from ONE run, so
        even ``compute_ms`` must agree — the stream may not re-run anything."""
        epochs, final = drain(trace, make_rescheduler("barrier", "mrt"))
        assert epochs == final["result"]["epochs"]
        assert final["result"]["kernel"] == "barrier"

    @given(trace=random_traces)
    @settings(max_examples=15, deadline=None)
    def test_final_frame_equals_the_synchronous_response(self, trace):
        """(a) Concatenating nothing but the last line reproduces the legacy
        ``compute_replay_response`` document, timing fields aside."""
        _, final = drain(trace, make_rescheduler("barrier", "mrt"), validate=True)
        reference = compute_replay_response(
            trace, make_rescheduler("barrier", "mrt"), True
        )
        assert json.dumps(scrub(final), sort_keys=True) == json.dumps(
            scrub(reference), sort_keys=True
        )

    def test_frames_arrive_as_valid_single_line_ndjson(self):
        trace = make_trace("burst", "mixed", 10, 4, seed=3)
        for line in iter_replay_frames(trace, EpochRescheduler("mrt"), False):
            assert line.endswith(b"\n") and line.count(b"\n") == 1
            json.loads(line)

    def test_kernel_error_is_raised_mid_iteration(self):
        """The error contract: the generator re-raises, it never yields a
        final frame — the transport turns that into stream truncation."""

        class Boom(RuntimeError):
            pass

        class FailingScheduler:
            name = "boom"

            def schedule(self, batch):
                raise Boom("engine exploded")

        trace = make_trace("poisson", "uniform", 6, 4, seed=0)
        rescheduler = EpochRescheduler("mrt")
        rescheduler._scheduler = FailingScheduler()
        with pytest.raises(Boom):
            list(iter_replay_frames(trace, rescheduler, False))

    def test_each_frame_is_yielded_before_the_next_batch_is_scheduled(self):
        """No epoch is computed ahead of its frame: while the consumer holds
        epoch k's frame, exactly k + 1 batches have been scheduled."""
        trace, rescheduler, counter = counted_replay()
        epochs = 0
        for index, line in enumerate(iter_replay_frames(trace, rescheduler, False)):
            document = json.loads(line)
            if "epoch" not in document:
                break
            time.sleep(0.01)  # room for anything running ahead to show
            assert document["epoch"]["index"] == index
            assert counter.calls == index + 1
            epochs += 1
        assert epochs == document["result"]["num_epochs"] > 2

    def test_closing_the_stream_schedules_nothing_more(self):
        trace, rescheduler, counter = counted_replay()
        stream = iter_replay_frames(trace, rescheduler, False)
        assert json.loads(next(stream))["epoch"]["index"] == 0
        stream.close()
        time.sleep(0.05)
        assert counter.calls == 1


class CountingScheduler:
    """Delegates to a real scheduler and counts the batches it schedules."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls = 0

    def schedule(self, batch):
        self.calls += 1
        return self.inner.schedule(batch)


def counted_replay():
    """A multi-epoch trace and an uncached kernel whose batches are counted."""
    trace = make_trace("poisson", "mixed", 12, 4, seed=1)
    rescheduler = EpochRescheduler("mrt")
    counter = CountingScheduler(rescheduler._scheduler)
    rescheduler._scheduler = counter
    return trace, rescheduler, counter


class TestPlanCacheByteIdentity:
    @pytest.mark.parametrize("kernel", ["barrier"])
    def test_warm_replay_is_byte_identical_to_cold(self, kernel):
        """(b) Same trace, shared cache: run 2 rebuilds every epoch plan from
        the cache yet streams the identical document — certificates
        included, because they are stored inside the cached plan."""
        cache = PlanCache(256)
        trace = make_trace("pareto", "mixed", 16, 6, seed=7)
        runs = []
        for _ in range(2):
            rescheduler = make_rescheduler(kernel, "mrt", plan_cache=cache)
            epochs, final = drain(trace, rescheduler, validate=True)
            assert epochs == final["result"]["epochs"]
            runs.append(scrub(final))
        assert json.dumps(runs[0], sort_keys=True) == json.dumps(
            runs[1], sort_keys=True
        )
        assert cache.stats.misses > 0 and cache.stats.hits >= cache.stats.misses

    def test_warm_replay_is_1_2x_faster_than_cold(self):
        """A pass over traces whose epoch plans are already cached runs
        >= 1.2x faster than the pass that filled the cache (best of 3;
        poisson mixed 32x8, seeds 0-2)."""
        traces = [
            make_trace("poisson", "mixed", 32, 8, seed=seed) for seed in range(3)
        ]

        def pass_seconds(cache: PlanCache) -> float:
            start = time.perf_counter()
            for trace in traces:
                make_rescheduler("barrier", "mrt", plan_cache=cache).replay(trace)
            return time.perf_counter() - start

        cold = warm = float("inf")
        for _ in range(3):
            cache = PlanCache()
            cold = min(cold, pass_seconds(cache))
            warm = min(warm, pass_seconds(cache))
        assert cold / warm >= 1.2, f"warm replay only {cold / warm:.2f}x faster"

    def test_plain_replay_unaffected_by_cache_presence(self):
        """A cache-less replay and a cold cached replay emit the same bytes:
        the cache can memoise, never perturb."""
        trace = make_trace("burst", "mixed", 12, 6, seed=2)
        _, plain = drain(trace, make_rescheduler("barrier", "mrt"))
        _, cached = drain(
            trace, make_rescheduler("barrier", "mrt", plan_cache=PlanCache())
        )
        assert scrub(plain) == scrub(cached)


class TestPlanCacheAccounting:
    def test_hit_miss_and_size_accounting(self):
        cache = PlanCache(64)
        trace = make_trace("poisson", "uniform", 10, 4, seed=5)
        rescheduler = EpochRescheduler("mrt", plan_cache=cache)
        cold = rescheduler.replay(trace)
        assert cache.stats.hits == 0
        assert cache.stats.misses == cold.num_epochs
        assert len(cache) == cold.num_epochs
        EpochRescheduler("mrt", plan_cache=cache).replay(trace)
        assert cache.stats.hits == cold.num_epochs
        assert cache.stats.misses == cold.num_epochs

    def test_lru_eviction_accounting_and_clear(self):
        cache = PlanCache(2)
        batches = [make_trace("poisson", "uniform", 4, 2, seed=s) for s in range(3)]
        plans = {}
        for batch in batches:
            schedule = make_rescheduler("barrier", "mrt")._scheduler.schedule(batch)
            key = plan_key(batch, "mrt", PlanCache.params_json(None))
            plans[key] = CachedPlan.from_schedule(schedule, None)
            cache.store(key, plans[key])
        assert len(cache) == 2
        assert cache.stats.evictions_lru == 1
        first_key = next(iter(plans))
        assert cache.fetch(first_key) is PLAN_MISS  # the evicted one
        assert cache.clear() == 2 and len(cache) == 0
        metrics = cache.metrics()
        assert metrics["size"] == 0 and metrics["evictions_lru"] == 1

    def test_rebuilt_schedule_matches_the_original(self):
        batch = make_trace("poisson", "mixed", 8, 4, seed=11)
        schedule = make_rescheduler("barrier", "mrt")._scheduler.schedule(batch)
        found = {"guesses": 3, "branch": "two-shelves", "lower_bound": 1.5,
                 "ratio_to_lower_bound": 1.25}
        plan = CachedPlan.from_schedule(schedule, found)
        rebuilt = plan.build_schedule(batch)
        assert rebuilt.as_dict() == schedule.as_dict()
        assert plan.certificate == found
        # the plan keeps its own copy, in wire order
        found["guesses"] = 99
        assert list(plan.certificate) == ["guesses", "branch", "lower_bound",
                                          "ratio_to_lower_bound"]
        assert plan.certificate["guesses"] == 3
        assert CachedPlan.from_schedule(schedule, None).certificate is None


class TestPlanKeySchema:
    def test_key_is_order_sensitive_under_trace_reordering(self):
        """(c) Deliberate: schedulers tie-break by task index, so the same
        tasks in a different order are a *different* plan."""
        from repro.model.instance import Instance

        trace = make_trace("poisson", "mixed", 8, 4, seed=9)
        payload = trace.as_dict()
        reordered = Instance.from_dict(
            {**payload, "tasks": list(reversed(payload["tasks"]))}
        )
        params = PlanCache.params_json(None)
        assert plan_key(trace, "mrt", params) != plan_key(reordered, "mrt", params)

    def test_key_is_stable_across_instances_and_ignores_labels(self):
        """Round-tripping through as_dict/from_dict (what the daemon does)
        and renaming the batch (what the epoch loop does with ``@epochN``)
        must not change the key — that is what makes shards warm."""
        from repro.model.instance import Instance

        trace = make_trace("burst", "mixed", 8, 4, seed=4)
        params = PlanCache.params_json({"b": 2, "a": 1})
        key = plan_key(trace, "mrt", params)
        clone = Instance.from_dict(trace.as_dict())
        assert plan_key(clone, "mrt", params) == key
        renamed = trace.subset(range(trace.num_tasks), name=f"{trace.name}@epoch3")
        assert plan_key(renamed, "mrt", params) == key
        # params canonicalisation: insertion order is irrelevant
        assert PlanCache.params_json({"a": 1, "b": 2}) == params

    def test_key_varies_with_algorithm_and_params_not_kernel(self):
        trace = make_trace("poisson", "uniform", 6, 4, seed=2)
        base = plan_key(trace, "mrt", PlanCache.params_json(None))
        assert plan_key(trace, "ltf", PlanCache.params_json(None)) != base
        assert plan_key(trace, "mrt", PlanCache.params_json({"x": 1})) != base


class TestDaemonStreamEndToEnd:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.service import start_background_server

        server, _ = start_background_server(allow_shutdown=False)
        yield server
        server.close()

    @pytest.fixture
    def client(self, server):
        from repro.service import ServiceClient

        client = ServiceClient(server.url)
        yield client
        client.close()

    @pytest.mark.parametrize("kernel", ["barrier"])
    def test_daemon_stream_matches_in_process_generator(self, server, kernel):
        """(d) The HTTP chunk stream carries exactly the NDJSON lines the
        in-process generator yields for the same trace (scrubbed)."""
        import http.client

        spec = {"pattern": "pareto", "family": "mixed", "tasks": 12, "procs": 6,
                "seed": 13}
        body = json.dumps(
            {"generate": spec, "kernel": kernel, "validate": True}
        ).encode()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request("POST", "/replay", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            streamed = [json.loads(line) for line in response]
        finally:
            conn.close()
        trace = make_trace(
            spec["pattern"], spec["family"], spec["tasks"], spec["procs"],
            seed=spec["seed"],
        )
        epochs, final = drain(trace, make_rescheduler(kernel, "mrt"), True)
        assert len(streamed) == len(epochs) + 1
        assert scrub(streamed[-1]) == scrub(final)
        for streamed_doc, local_epoch in zip(streamed[:-1], epochs):
            a = dict(streamed_doc["epoch"], compute_ms=0.0)
            b = dict(local_epoch, compute_ms=0.0)
            assert a == b

    def test_service_client_reassembles_the_stream(self, client):
        seen: list[dict] = []
        final = client.replay(
            generate={"pattern": "poisson", "family": "mixed", "tasks": 10,
                      "procs": 4, "seed": 21},
            validate=True,
            on_epoch=seen.append,
        )
        assert seen == final["result"]["epochs"]
        assert final["validation"]["events"] > 0
        assert final["elapsed_ms"] > 0

    def test_plan_cache_surfaces_in_daemon_metrics_and_purge(self, client):
        client.replay(
            generate={"pattern": "burst", "family": "mixed", "tasks": 10,
                      "procs": 4, "seed": 30},
        )
        metrics = client.metrics()
        plan = metrics["plan_cache"]
        assert plan["size"] > 0
        assert plan["misses"] > 0
        purged = client.purge(all=True)
        assert purged["plan_cleared"] > 0
        assert client.metrics()["plan_cache"]["size"] == 0
