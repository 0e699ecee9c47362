"""Tests for the scheduling-as-a-service layer (repro.service)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import InvalidScheduleError, ModelError, ServiceOverloadedError
from repro.model.instance import Instance
from repro.model.schedule import Schedule
from repro.registry import ALGORITHMS, make_scheduler
from repro.service import (
    MISS,
    LRUTTLCache,
    ScheduleRequest,
    SchedulerService,
    ServiceClient,
    ServiceHTTPError,
    canonical_json,
    payload_fingerprint,
    request_from_payload,
    start_background_server,
)
from repro.workloads.generators import make_workload

# --------------------------------------------------------------------------- #
# cache primitive
# --------------------------------------------------------------------------- #
class TestLRUTTLCache:
    def test_get_put_and_stats(self):
        cache = LRUTTLCache(4)
        assert cache.get("a") is MISS
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert 0 < cache.stats.hit_rate < 1

    def test_lru_eviction_order(self):
        cache = LRUTTLCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" becomes the LRU entry
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is MISS
        assert cache.get("c") == 3
        assert cache.stats.evictions_lru == 1

    def test_ttl_expiry_with_fake_clock(self):
        now = [0.0]
        cache = LRUTTLCache(4, ttl=10.0, clock=lambda: now[0])
        cache.put("a", 1)
        now[0] = 9.0
        assert cache.get("a") == 1
        now[0] = 10.5
        assert cache.get("a") is MISS
        assert cache.stats.evictions_ttl == 1

    def test_purge_expired(self):
        now = [0.0]
        cache = LRUTTLCache(8, ttl=5.0, clock=lambda: now[0])
        cache.put("a", 1)
        cache.put("b", 2)
        now[0] = 6.0
        cache.put("c", 3)
        assert cache.purge_expired() == 2
        assert len(cache) == 1
        # Eager purges are counted separately from lazy on-access expiry.
        assert cache.stats.expired_purged == 2
        assert cache.stats.evictions_ttl == 0
        assert cache.stats.as_dict()["expired_purged"] == 2

    def test_get_if_hit_counts_hits_but_not_misses(self):
        now = [0.0]
        cache = LRUTTLCache(4, ttl=5.0, clock=lambda: now[0])
        assert cache.get_if_hit("a") is MISS
        assert cache.stats.misses == 0  # the probe is not the real lookup
        cache.put("a", 1)
        assert cache.get_if_hit("a") == 1
        assert cache.stats.hits == 1
        now[0] = 6.0
        assert cache.get_if_hit("a") is MISS  # expired: dropped + counted
        assert cache.stats.evictions_ttl == 1
        assert cache.stats.misses == 0

    def test_put_classifies_expired_pops_as_ttl(self):
        """Capacity pops of already-expired entries count as TTL evictions.

        Regression: the capacity loop in ``put`` used to count every popped
        entry as ``evictions_lru``, so a busy shard with a short TTL looked
        capacity-starved in the aggregated ``/metrics`` eviction split.
        """
        now = [0.0]
        cache = LRUTTLCache(2, ttl=5.0, clock=lambda: now[0])
        cache.put("a", 1)
        cache.put("b", 2)
        now[0] = 6.0  # both entries are now past their TTL
        cache.put("c", 3)  # pops "a": expired, so a TTL eviction
        assert cache.stats.evictions_ttl == 1
        assert cache.stats.evictions_lru == 0
        cache.put("d", 4)  # pops "b": also expired
        assert cache.stats.evictions_ttl == 2
        assert cache.stats.evictions_lru == 0
        cache.put("e", 5)  # pops "c": fresh (stored at t=6), a real LRU eviction
        assert cache.stats.evictions_ttl == 2
        assert cache.stats.evictions_lru == 1

    def test_put_without_ttl_counts_lru(self):
        cache = LRUTTLCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.stats.evictions_lru == 1
        assert cache.stats.evictions_ttl == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LRUTTLCache(0)
        with pytest.raises(ValueError):
            LRUTTLCache(1, ttl=0.0)


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprint:
    def test_labels_do_not_matter(self):
        a = Instance.from_profiles([[4.0, 2.0], [6.0, 3.5]], name="a")
        b = Instance.from_profiles([[4.0, 2.0], [6.0, 3.5]], name="b")
        assert a.fingerprint() == b.fingerprint()

    def test_content_matters(self):
        base = Instance.from_profiles([[4.0, 2.0], [6.0, 3.5]])
        assert base.scaled(2.0).fingerprint() != base.fingerprint()
        wider = Instance.from_profiles([[4.0, 2.0, 2.0], [6.0, 3.5, 3.5]])
        assert wider.fingerprint() != base.fingerprint()
        assert wider.with_machine(2).fingerprint() == base.fingerprint()

    def test_round_trip_stable(self):
        inst = make_workload("mixed", 10, 8, seed=5)
        assert Instance.from_json(inst.to_json()).fingerprint() == inst.fingerprint()

    def test_payload_fingerprint_matches_instance(self):
        inst = make_workload("heavy-tailed", 7, 6, seed=2)
        assert payload_fingerprint(inst.as_dict()) == inst.fingerprint()

    def test_payload_fingerprint_truncates_like_constructor(self):
        payload = {
            "num_procs": 2,
            "tasks": [{"name": "t", "times": [4.0, 2.0, 1.5]}],
        }
        inst = Instance.from_dict(payload)
        assert payload_fingerprint(payload) == inst.fingerprint()

    def test_payload_fingerprint_rejects_malformed(self):
        assert payload_fingerprint({"num_procs": 2, "tasks": []}) is None
        assert payload_fingerprint({"tasks": [{"times": [1.0]}]}) is None
        assert (
            payload_fingerprint({"num_procs": 2, "tasks": [{"times": [1.0]}]}) is None
        )  # profile shorter than the machine
        assert (
            payload_fingerprint({"num_procs": 1, "tasks": [{"times": [-1.0]}]}) is None
        )

    def test_payload_fingerprint_long_rows_match_instance(self):
        payload = {
            "num_procs": 2,
            "tasks": [
                {"name": "a", "times": [4.0, 2.0, 1.5, 1.25]},
                {"name": "b", "times": [3.0, 2.5, 2.0, 1.75]},
            ],
        }
        assert payload_fingerprint(payload) == Instance.from_dict(payload).fingerprint()

    def test_payload_fingerprint_releases_match_instance(self):
        payload = {
            "num_procs": 2,
            "tasks": [
                {"name": "a", "times": [4.0, 2.0, 1.5], "release": 0.0},
                {"name": "b", "times": [3.0, 2.5, 2.0], "release": 1.5},
                {"name": "c", "times": [2.0, 1.5, 1.0], "release": "2.25"},
            ],
        }
        digest = payload_fingerprint(payload)
        assert digest == Instance.from_dict(payload).fingerprint()
        release_free = {
            "num_procs": 2,
            "tasks": [{k: v for k, v in t.items() if k != "release"} for t in payload["tasks"]],
        }
        assert payload_fingerprint(release_free) != digest
        for bad in (-1.0, float("nan"), "x"):
            payload["tasks"][1]["release"] = bad
            assert payload_fingerprint(payload) is None
            with pytest.raises(ModelError):
                request_from_payload({"instance": payload})

    def test_payload_fingerprint_declines_ragged_rows(self):
        # Ragged rows wide enough for the machine are a valid instance, but
        # not one the bulk pass takes: the request still gets the instance's
        # fingerprint, through full construction.
        payload = {
            "num_procs": 2,
            "tasks": [
                {"name": "a", "times": [4.0, 2.0, 1.5]},
                {"name": "b", "times": [3.0, 2.5]},
            ],
        }
        assert payload_fingerprint(payload) is None
        request = request_from_payload({"instance": payload})
        assert request.cache_key()[0] == Instance.from_dict(payload).fingerprint()

    def test_payload_fingerprint_validates_beyond_truncation(self):
        # Garbage past column m must disqualify the fast path — otherwise the
        # payload would 400 on a cold cache but hit (200) on a warm one.
        bad = {"num_procs": 2, "tasks": [{"name": "t", "times": [5.0, 4.0, -1.0]}]}
        assert payload_fingerprint(bad) is None
        with pytest.raises(ModelError):
            request_from_payload({"instance": bad})


# --------------------------------------------------------------------------- #
# request parsing
# --------------------------------------------------------------------------- #
class TestRequestParsing:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ModelError):
            request_from_payload({"algorithm": "mrt"})
        with pytest.raises(ModelError):
            request_from_payload(
                {"instance": {}, "generate": {"family": "uniform"}}
            )

    def test_unknown_family(self):
        with pytest.raises(ModelError):
            request_from_payload({"generate": {"family": "nope"}})

    def test_generate(self):
        req = request_from_payload(
            {"generate": {"family": "uniform", "tasks": 4, "procs": 4, "seed": 1}}
        )
        assert isinstance(req.instance, Instance)
        assert req.instance.num_procs == 4

    def test_raw_instance_stays_lazy(self):
        inst = make_workload("uniform", 4, 4, seed=0)
        req = request_from_payload({"instance": inst.as_dict()})
        assert isinstance(req.instance, dict)
        assert req.fingerprint == inst.fingerprint()
        assert req.cache_key()[0] == inst.fingerprint()

    def test_bad_params(self):
        inst = make_workload("uniform", 4, 4, seed=0)
        with pytest.raises(ModelError):
            request_from_payload({"instance": inst.as_dict(), "params": [1]})


# --------------------------------------------------------------------------- #
# service cache correctness
# --------------------------------------------------------------------------- #
@pytest.fixture
def small_instance() -> Instance:
    return make_workload("mixed", 8, 6, seed=11)


class TestServiceCache:
    def test_hit_returns_identical_schedule_to_direct_call(self, small_instance):
        with SchedulerService(workers=2) as service:
            first = service.schedule(ScheduleRequest(instance=small_instance))
            replay = service.schedule(
                ScheduleRequest(instance=Instance.from_json(small_instance.to_json()))
            )
        assert first["cache_hit"] is False and replay["cache_hit"] is True
        assert canonical_json(first["result"]) == canonical_json(replay["result"])
        direct = make_scheduler("mrt").schedule(small_instance)
        assert first["result"]["makespan"] == direct.makespan()
        assert canonical_json(first["result"]["schedule"]) == canonical_json(
            direct.as_dict()
        )
        # The served schedule is a real, valid schedule for the instance.
        rebuilt = Schedule.from_dict(small_instance, first["result"]["schedule"])
        rebuilt.validate()

    def test_different_algorithm_misses(self, small_instance):
        with SchedulerService(workers=2) as service:
            service.schedule(ScheduleRequest(instance=small_instance))
            other = service.schedule(
                ScheduleRequest(instance=small_instance, algorithm="sequential")
            )
            assert other["cache_hit"] is False
            assert service.cache.stats.misses == 2

    def test_different_params_miss(self, small_instance):
        with SchedulerService(workers=2) as service:
            service.schedule(ScheduleRequest(instance=small_instance))
            tweaked = service.schedule(
                ScheduleRequest(instance=small_instance, params={"eps": 1e-2})
            )
            assert tweaked["cache_hit"] is False

    def test_scaled_instance_misses(self, small_instance):
        with SchedulerService(workers=2) as service:
            service.schedule(ScheduleRequest(instance=small_instance))
            scaled = service.schedule(
                ScheduleRequest(instance=small_instance.scaled(2.0))
            )
            assert scaled["cache_hit"] is False

    def test_ttl_expiry_evicts(self, small_instance):
        now = [0.0]
        with SchedulerService(
            workers=2, cache_ttl=30.0, clock=lambda: now[0]
        ) as service:
            request = ScheduleRequest(instance=small_instance)
            service.schedule(request)
            assert service.schedule(request)["cache_hit"] is True
            now[0] = 31.0
            stale = service.schedule(request)
            assert stale["cache_hit"] is False
            assert service.cache.stats.evictions_ttl == 1

    def test_validate_flag_runs_simulation(self, small_instance):
        with SchedulerService(workers=2) as service:
            response = service.schedule(
                ScheduleRequest(instance=small_instance, validate=True)
            )
        assert response["validation"] is not None
        assert response["validation"]["simulated_makespan"] == pytest.approx(
            response["result"]["makespan"]
        )

    def test_drain_loop_purges_expired_entries(self, small_instance):
        """Long-idle services must not pin dead entries until the next get."""
        now = [0.0]
        with SchedulerService(
            workers=2, cache_ttl=30.0, purge_interval=0.05, clock=lambda: now[0]
        ) as service:
            service.schedule(ScheduleRequest(instance=small_instance))
            assert len(service.cache) == 1
            now[0] = 31.0  # entry is now expired; no request ever touches it
            deadline = time.monotonic() + 5.0
            while len(service.cache) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert len(service.cache) == 0
            assert service.cache.stats.expired_purged == 1
            assert service.metrics()["cache"]["expired_purged"] == 1

    def test_purge_interval_validation(self):
        with pytest.raises(ValueError):
            SchedulerService(purge_interval=0.0)


# --------------------------------------------------------------------------- #
# single-flight misses & backpressure
# --------------------------------------------------------------------------- #
class GatedScheduler:
    """``sequential`` behind a gate: each call blocks until the test opens it.

    ``calls`` counts scheduler runs (one per ``compute_response``);
    ``entered`` is set once a run is blocked on the gate; ``failures`` makes
    that many first runs raise after the gate opens.
    """

    name = "gated"
    gate = threading.Event()
    entered = threading.Event()
    calls = 0
    failures = 0

    def schedule(self, instance):
        cls = type(self)
        cls.calls += 1
        cls.entered.set()
        assert cls.gate.wait(30), "test never opened the gate"
        if cls.failures:
            cls.failures -= 1
            raise RuntimeError("scheduler blew up")
        return make_scheduler("sequential").schedule(instance)


@pytest.fixture
def gated(monkeypatch):
    monkeypatch.setattr(GatedScheduler, "gate", threading.Event())
    monkeypatch.setattr(GatedScheduler, "entered", threading.Event())
    monkeypatch.setattr(GatedScheduler, "calls", 0)
    monkeypatch.setattr(GatedScheduler, "failures", 0)
    monkeypatch.setitem(ALGORITHMS, "gated", GatedScheduler)
    yield GatedScheduler
    GatedScheduler.gate.set()  # never leave a worker thread blocked


def _in_thread(fn, *args, **kwargs) -> tuple[threading.Thread, list]:
    """Run ``fn`` on a thread; the list receives its result or exception."""
    out: list = []

    def run():
        try:
            out.append(fn(*args, **kwargs))
        except BaseException as exc:  # surfaced by the test's assertions
            out.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, out


def _wait_for(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.002)


class TestBatchingAndBackpressure:
    def test_identical_requests_5ms_apart_compute_once(self, small_instance, gated):
        """A miss joins the running computation, not only a same-batch twin."""
        with SchedulerService(workers=2) as service:
            request = ScheduleRequest(instance=small_instance, algorithm="gated")
            t1, out1 = _in_thread(service.schedule, request)
            assert gated.entered.wait(30)
            time.sleep(0.005)
            t2, out2 = _in_thread(service.schedule, request)
            _wait_for(lambda: service.metrics()["queue_depth"] == 2)
            gated.gate.set()
            t1.join(30)
            t2.join(30)
            metrics = service.metrics()
        assert gated.calls == 1
        assert metrics["cache"]["misses"] == 1
        assert metrics["deduped_in_batch"] == 1
        assert out1[0]["cache_hit"] is False and out2[0]["cache_hit"] is False
        assert canonical_json(out1[0]["result"]) == canonical_json(out2[0]["result"])

    def test_concurrent_identical_requests_compute_once(self, small_instance, gated):
        with SchedulerService(workers=2) as service:
            request = ScheduleRequest(instance=small_instance, algorithm="gated")
            barrier = threading.Barrier(4)

            def one():
                barrier.wait(30)
                return service.schedule(request)

            runs = [_in_thread(one) for _ in range(4)]
            _wait_for(lambda: service.metrics()["queue_depth"] == 4)
            gated.gate.set()
            for thread, _ in runs:
                thread.join(30)
            assert service.cache.stats.misses == 1 and service.cache.stats.hits == 0
            assert service.metrics()["deduped_in_batch"] == 3
        assert gated.calls == 1
        payloads = {canonical_json(out[0]["result"]) for _, out in runs}
        assert len(payloads) == 1

    def test_hit_does_not_wait_behind_a_miss(self, small_instance, gated):
        other = make_workload("uniform", 4, 6, seed=3)
        with SchedulerService(workers=1) as service:
            warm = ScheduleRequest(instance=small_instance, algorithm="sequential")
            service.schedule(warm)
            miss, out = _in_thread(
                service.schedule, ScheduleRequest(instance=other, algorithm="gated")
            )
            assert gated.entered.wait(30)
            # The one compute slot is taken; the hit must not need it.
            assert service.schedule(warm)["cache_hit"] is True
            assert miss.is_alive()
            gated.gate.set()
            miss.join(30)
        assert out[0]["result"]["makespan"] > 0

    def test_failed_computation_caches_nothing(self, small_instance, gated):
        gated.failures = 1
        with SchedulerService(workers=2) as service:
            request = ScheduleRequest(instance=small_instance, algorithm="gated")
            t1, out1 = _in_thread(service.schedule, request)
            assert gated.entered.wait(30)
            t2, out2 = _in_thread(service.schedule, request)
            _wait_for(lambda: service.metrics()["queue_depth"] == 2)
            gated.gate.set()
            t1.join(30)
            t2.join(30)
            # Both waiters see the one failure; nothing is cached or left over.
            assert isinstance(out1[0], RuntimeError)
            assert isinstance(out2[0], RuntimeError)
            assert len(service.cache) == 0
            assert service._inflight == {}
            assert service.metrics()["queue_depth"] == 0
            retry = service.schedule(request)
            assert retry["cache_hit"] is False
            assert service.cache.stats.misses == 2
        direct = make_scheduler("sequential").schedule(small_instance)
        assert retry["result"]["makespan"] == direct.makespan()
        assert gated.calls == 2

    def test_waits_time_out(self, small_instance, gated):
        other = make_workload("uniform", 4, 6, seed=3)
        with SchedulerService(workers=1) as service:
            request = ScheduleRequest(instance=small_instance, algorithm="gated")
            leader, out = _in_thread(service.schedule, request)
            assert gated.entered.wait(30)
            with pytest.raises(TimeoutError):  # waiting for the busy slot
                service.schedule(ScheduleRequest(instance=other), timeout=0.05)
            with pytest.raises(TimeoutError):  # waiting for the identical miss
                service.schedule(request, timeout=0.05)
            gated.gate.set()
            leader.join(30)
            assert out[0]["result"]["makespan"] > 0
            assert service.metrics()["queue_depth"] == 0
            assert service.schedule(ScheduleRequest(instance=other))["cache_hit"] is False

    def test_backpressure_rejects_and_counts(self, small_instance, gated):
        other = make_workload("uniform", 4, 6, seed=3)
        with SchedulerService(workers=1, max_pending=2) as service:
            t1, out1 = _in_thread(
                service.schedule,
                ScheduleRequest(instance=small_instance, algorithm="gated"),
            )
            t2, out2 = _in_thread(
                service.schedule, ScheduleRequest(instance=other, algorithm="gated")
            )
            _wait_for(lambda: service.metrics()["queue_depth"] == 2)
            with pytest.raises(ServiceOverloadedError):
                service.schedule(ScheduleRequest(instance=small_instance))
            gated.gate.set()
            t1.join(30)
            t2.join(30)
            assert out1[0]["result"]["makespan"] > 0
            assert out2[0]["result"]["makespan"] > 0
            metrics = service.metrics()
        assert metrics["rejections"] == 1
        assert metrics["requests_total"] == 2

    def test_closed_service_rejects(self, small_instance):
        service = SchedulerService(workers=1)
        service.close()
        assert not service._ticker.is_alive()
        with pytest.raises(RuntimeError):
            service.schedule(ScheduleRequest(instance=small_instance))

    def test_bad_request_does_not_leak_backpressure_slots(self, small_instance):
        """A request whose cache key cannot be computed must not eat a slot."""
        with SchedulerService(workers=1, max_pending=2) as service:
            bad = ScheduleRequest(instance=small_instance.as_dict())  # no fingerprint
            for _ in range(5):
                with pytest.raises(ModelError):
                    service.schedule(bad)
            assert service.metrics()["queue_depth"] == 0
            # The service still serves normal traffic afterwards.
            response = service.schedule(ScheduleRequest(instance=small_instance))
            assert response["result"]["makespan"] > 0


# --------------------------------------------------------------------------- #
# HTTP frontend
# --------------------------------------------------------------------------- #
class TestHTTPFrontend:
    @pytest.fixture
    def server(self):
        server, _ = start_background_server(allow_shutdown=False)
        yield server
        server.close()

    @pytest.fixture
    def client(self, server):
        host, port = server.server_address[:2]
        return ServiceClient(f"http://{host}:{port}")

    def test_healthz_and_metrics(self, client):
        assert client.healthz()["status"] == "ok"
        metrics = client.metrics()
        for key in ("requests_total", "cache", "latency", "queue_depth", "rejections"):
            assert key in metrics
        # Satellite: warm/cold analysis needs the cache stats in the body.
        for key in ("hits", "misses", "hit_rate", "evictions_lru", "evictions_ttl",
                    "expired_purged", "size"):
            assert key in metrics["cache"]
        assert "fast_hits" in metrics

    def test_purge_endpoint(self, client, small_instance):
        client.schedule(small_instance)
        assert client.schedule(small_instance)["cache_hit"] is True
        report = client.purge(all=True)
        assert report["cleared"] >= 1 and report["size"] == 0
        assert client.schedule(small_instance)["cache_hit"] is False

    def test_schedule_round_trip_and_hit(self, client, small_instance):
        first = client.schedule(small_instance)
        replay = client.schedule(small_instance)
        assert first["cache_hit"] is False and replay["cache_hit"] is True
        assert canonical_json(first["result"]) == canonical_json(replay["result"])
        direct = make_scheduler("mrt").schedule(small_instance)
        assert first["result"]["makespan"] == direct.makespan()
        assert client.metrics()["cache"]["hits"] >= 1

    def test_bad_request_is_400(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client.schedule_payload({"nonsense": True})
        assert err.value.status == 400

    def test_unknown_algorithm_is_400(self, client, small_instance):
        with pytest.raises(ServiceHTTPError) as err:
            client.schedule(small_instance, algorithm="nope")
        assert err.value.status == 400

    def test_wait_past_request_timeout_is_504(self, small_instance, gated):
        server, _ = start_background_server(request_timeout=0.05)
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            leader, out = _in_thread(
                ServiceClient(url, retries=0).schedule, small_instance, algorithm="gated"
            )
            assert gated.entered.wait(30)
            with pytest.raises(ServiceHTTPError) as err:
                ServiceClient(url, retries=0).schedule(small_instance, algorithm="gated")
            assert err.value.status == 504
            gated.gate.set()
            leader.join(30)
            assert out[0]["cache_hit"] is False
        finally:
            server.close()

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client._request("/nope")
        assert err.value.status == 404

    def test_shutdown_forbidden_when_disabled(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client.shutdown()
        assert err.value.status == 403

    def test_replay_endpoint_with_generated_trace(self, client):
        response = client.replay(
            generate={"pattern": "poisson", "family": "uniform",
                      "tasks": 8, "procs": 4, "seed": 0},
            quantum=2.0,
            validate=True,
        )
        result = response["result"]
        assert result["num_epochs"] >= 1
        assert len(result["epochs"]) == result["num_epochs"]
        assert response["validation"]["simulated_makespan"] == pytest.approx(
            result["makespan"], rel=1e-6
        )
        assert response["elapsed_ms"] >= 0

    def test_replay_endpoint_with_explicit_trace(self, client):
        from repro.workloads.arrivals import poisson_trace

        trace = poisson_trace("uniform", 6, 4, seed=3)
        response = client.replay(trace)
        assert response["fingerprint"] == trace.fingerprint()
        assert response["result"]["num_tasks"] == 6

    def test_replay_bad_request_is_400(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client.replay(generate={"pattern": "nope"})
        assert err.value.status == 400
        with pytest.raises(ServiceHTTPError) as err:
            client._request("/replay", payload={})
        assert err.value.status == 400

    def test_replay_runs_the_barrier_kernel(self, client):
        from repro.workloads.arrivals import poisson_trace

        trace = poisson_trace("uniform", 8, 4, seed=2)
        response = client.replay(trace, validate=True)
        assert response["result"]["kernel"] == "barrier"
        assert response["validation"] is not None

    def test_replay_unknown_kernel_is_400_listing_choices(self, client):
        with pytest.raises(ServiceHTTPError) as err:
            client._request(
                "/replay",
                payload={"generate": {"tasks": 4, "procs": 2}, "kernel": "availability"},
            )
        assert err.value.status == 400
        assert err.value.payload["error"] == (
            "unknown online kernel 'availability'; choose from ['barrier']"
        )

    def test_replay_negative_release_is_400_not_500(self, client):
        from repro.model.instance import Instance

        payload = Instance.from_profiles([[4.0, 2.0], [6.0, 3.5]]).as_dict()
        payload["tasks"][0]["release"] = -1.0
        with pytest.raises(ServiceHTTPError) as err:
            client.replay(payload)
        assert err.value.status == 400
        assert "release" in err.value.payload["error"]

    def test_non_repro_scheduler_crash_is_500(self, client, small_instance, monkeypatch):
        class ExplodingScheduler:
            name = "exploding"

            def schedule(self, instance):
                raise ZeroDivisionError("boom")

        monkeypatch.setitem(ALGORITHMS, "exploding", ExplodingScheduler)
        with pytest.raises(ServiceHTTPError) as err:
            client.schedule(small_instance, algorithm="exploding")
        assert err.value.status == 500
        assert "ZeroDivisionError" in err.value.payload["error"]


# --------------------------------------------------------------------------- #
# simulate_and_check error reporting
# --------------------------------------------------------------------------- #
class TestSimulateAndCheckReporting:
    def test_mismatch_error_names_processor_and_times(self, monkeypatch):
        import repro.sim.validate as validate_mod
        from repro.sim.engine import SimulationResult

        inst = Instance.from_profiles([[2.0, 1.0], [3.0, 1.6]])
        schedule = Schedule(inst, algorithm="test")
        schedule.add(0, 0.0, 0, 1)
        schedule.add(1, 0.0, 1, 1)

        import numpy as np

        def doctored(schedule, **kwargs):
            return SimulationResult(
                makespan=99.0,
                num_procs=2,
                finish_time=np.array([2.0, 99.0]),
            )

        monkeypatch.setattr(validate_mod, "simulate_schedule", doctored)
        with pytest.raises(InvalidScheduleError) as err:
            validate_mod.simulate_and_check(schedule)
        message = str(err.value)
        assert "processor 1" in message
        assert "static finish 3" in message and "simulated 99" in message
