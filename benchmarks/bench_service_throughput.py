"""Throughput benchmark for the scheduling service (PR 2 tentpole).

Self-hosts a :mod:`repro.service` HTTP server on an ephemeral port and
drives it through :class:`~repro.service.ServiceClient` threads:

1. **Cold phase** — a pool of distinct instances (mixed + uniform families
   plus the deterministic adversarial instances), every request a
   fingerprint-cache miss that runs the full scheduler.
2. **Warm phase** — the same pool replayed several times; every request is
   answered from the LRU cache and must carry the cold ``result`` bytes.
   The acceptance bar is a ≥ 5× throughput speedup of warm over cold (the
   repeated-instance workload the service exists to amortise).
3. **Byte-identity check** — every service ``result`` payload (schedule +
   makespan) must be byte-identical, under canonical JSON, to a direct
   ``Scheduler.schedule()`` call on the same instance in this process.
4. **Observability overhead** — tracing + histograms may cost the warm
   path at most 5%.

This is the one standalone gate script: its two bars have thin margins
and need paired rounds on a quiet host, not the tier-1 suite.  The other
benchmark bars are tier-1 tests: the 256-connection transport soak in
``tests/test_transport.py``; the allotment engine's >= 3x cached replay in
``tests/test_allotment_engine.py::TestMemoization`` and EXP-A's
``workers=4`` determinism in ``TestParallelDeterminism`` there; the online
kernels' <= 2x clairvoyant-offline bar in
``tests/test_online_differential.py::TestClairvoyantRatio`` (flow dominance
in ``TestFlowDominance``); the warm plan-cache replay's >= 1.2x speedup in
``tests/test_replay_streaming.py::TestPlanCacheByteIdentity``; and the
cluster re-run's plan-cache hits in
``tests/test_cluster.py::TestClusterEndToEnd``.

Emits a ``BENCH {...}`` JSON line for CI artifact collection and exits
non-zero when any bar fails or any request errors.

Run directly (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.model.instance import Instance
from repro.registry import make_scheduler
from repro.service import (
    ServiceClient,
    ServiceHTTPError,
    canonical_json,
    start_background_server,
)
from repro.service.core import SchedulerService
from repro.workloads.adversarial import fragmentation_instance, lpt_worst_case_instance
from repro.workloads.generators import make_workload

FAMILIES = ("mixed", "uniform")

#: Bar: warm (cache-hit) throughput over cold throughput.
MIN_SPEEDUP = 5.0
#: Bar: warm-path cost of tracing + histograms, as a fraction.
MAX_OBS_OVERHEAD = 0.05


def build_pool(*, instances: int, tasks: int, procs: int) -> list[dict]:
    """``POST /schedule`` bodies of the mixed instance pool.

    ``instances`` synthetic instances drawn round-robin from
    :data:`FAMILIES` (distinct seeds, so the cold phase is all fresh
    content), plus the deterministic fragmentation and LPT-worst-case
    instances.  Instances are embedded explicitly (``as_dict``) so a
    replayed payload carries bit-identical profiles and therefore the same
    fingerprint.
    """
    pool = [
        make_workload(FAMILIES[i % len(FAMILIES)], tasks, procs, seed=i)
        for i in range(instances)
    ]
    pool += [fragmentation_instance(procs), lpt_worst_case_instance(procs)]
    return [{"algorithm": "mrt", "instance": inst.as_dict()} for inst in pool]


def run_phase(
    client: ServiceClient, encoded: list[bytes], *, concurrency: int
) -> tuple[list[dict | None], list[float], float]:
    """Fire every pre-encoded body once through ``concurrency`` client threads.

    The bodies are encoded once by the caller: ``json.dumps`` of one
    20x16 instance costs ~0.4 ms, under the same interpreter lock as the
    in-process server, a sizeable share of a warm hit's own cost.  Returns
    ``(responses, latencies_ms, seconds)``; a failed request leaves
    ``None`` in ``responses`` and no latency.
    """

    def fire(body: bytes) -> tuple[dict | None, float | None]:
        start = time.perf_counter()
        try:
            data = client._send("POST", "/schedule", body)[2]
        except (ServiceHTTPError, OSError):
            return None, None
        response = json.loads(data)
        return response, (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        outcomes = list(pool.map(fire, encoded))
    seconds = time.perf_counter() - start
    responses = [response for response, _ in outcomes]
    return responses, [ms for _, ms in outcomes if ms is not None], seconds


def phase_summary(
    name: str, responses: list[dict | None], latencies_ms: list[float], seconds: float
) -> dict:
    """Requests, errors, throughput, cache hits and latency percentiles.

    Percentiles are taken over the union of every pass of the phase, not
    averaged per pass.
    """
    return {
        "name": name,
        "requests": len(responses),
        "errors": responses.count(None),
        "seconds": seconds,
        "rps": len(responses) / seconds if seconds > 0 else 0.0,
        "cache_hits": sum(1 for r in responses if r is not None and r["cache_hit"]),
        "p50_ms": float(np.percentile(latencies_ms, 50)) if latencies_ms else 0.0,
        "p99_ms": float(np.percentile(latencies_ms, 99)) if latencies_ms else 0.0,
    }


def measure_cold_warm(
    base_url: str, payloads: list[dict], *, repeats: int, concurrency: int
) -> dict:
    """One cold pass over ``payloads``, then ``repeats`` warm passes.

    ``consistent`` is true when every warm ``result`` is byte-identical,
    under canonical JSON, to the cold response for the same instance.
    """
    client = ServiceClient(base_url)
    encoded = [json.dumps(p).encode() for p in payloads]
    cold_responses, cold_ms, cold_seconds = run_phase(
        client, encoded, concurrency=concurrency
    )
    reference = [
        canonical_json(r["result"]) if r is not None else None
        for r in cold_responses
    ]
    warm_responses: list[dict | None] = []
    warm_ms: list[float] = []
    warm_seconds = 0.0
    consistent = True
    for _ in range(repeats):
        responses, latencies, seconds = run_phase(
            client, encoded, concurrency=concurrency
        )
        warm_responses += responses
        warm_ms += latencies
        warm_seconds += seconds
        for ref, response in zip(reference, responses):
            if ref is not None and response is not None:
                consistent = consistent and canonical_json(response["result"]) == ref
    cold = phase_summary("cold", cold_responses, cold_ms, cold_seconds)
    warm = phase_summary("warm", warm_responses, warm_ms, warm_seconds)
    return {
        "pool_size": len(payloads),
        "cold": cold,
        "warm": warm,
        "speedup": warm["rps"] / cold["rps"] if cold["rps"] > 0 else float("inf"),
        "consistent": consistent,
    }


def check_byte_identity(payloads: list[dict], base_url: str) -> int:
    """Replay every payload once and diff against direct scheduler calls.

    Returns the number of mismatching instances (0 = byte-identical).
    """
    client = ServiceClient(base_url)
    mismatches = 0
    for payload in payloads:
        response = client.schedule_payload(payload)
        instance = Instance.from_dict(payload["instance"])
        scheduler = make_scheduler(payload["algorithm"], payload.get("params"))
        schedule = scheduler.schedule(instance)
        direct = {
            "algorithm": schedule.algorithm or scheduler.name,
            "makespan": schedule.makespan(),
            "num_tasks": instance.num_tasks,
            "num_procs": instance.num_procs,
            "schedule": schedule.as_dict(),
        }
        if canonical_json(response["result"]) != canonical_json(direct):
            mismatches += 1
            print(
                f"MISMATCH on {instance.name!r}: service makespan "
                f"{response['result']['makespan']!r} vs direct "
                f"{direct['makespan']!r}"
            )
    return mismatches


def measure_obs_overhead(payloads: list[dict], *, repeats: int) -> float:
    """Fractional warm-path cost of tracing + histograms.

    Self-hosts two otherwise-identical daemons — one with ``tracing=True``
    (the default) and one with ``tracing=False`` — primes both caches with
    the same payloads, and times warm cache-hit replays back-to-back in
    *pairs* (alternating which configuration goes first), so clock drift
    and shared-runner noise hit both sides equally.  The overhead is the
    *median* paired difference over the mean of the untraced fastest
    decile: the median cancels symmetric noise within pairs, the decile
    floor is the honest per-request base cost (noise only adds time).

    The measurement repeats in three independent rounds and keeps the
    *smallest* estimate: interference (another process stealing the core,
    a frequency drop) only ever inflates an estimate, while a genuine
    instrumentation regression inflates every round alike.

    Returns a fraction (0.05 = tracing makes the warm path 5% slower;
    small negatives are measurement noise).
    """
    servers: dict[bool, object] = {}
    clients: dict[bool, ServiceClient] = {}

    def round_overhead() -> float:
        diffs: list[float] = []
        base: list[float] = []
        for i in range(repeats):
            order = (True, False) if i % 2 == 0 else (False, True)
            for payload in payloads:
                pair = {}
                for tracing in order:
                    start = time.perf_counter()
                    clients[tracing].schedule_payload(payload)
                    pair[tracing] = time.perf_counter() - start
                diffs.append(pair[True] - pair[False])
                base.append(pair[False])
        diffs.sort()
        base.sort()
        decile = max(1, len(base) // 10)
        floor = sum(base[:decile]) / decile
        return diffs[len(diffs) // 2] / floor

    try:
        for tracing in (True, False):
            server, _ = start_background_server(
                service=SchedulerService(tracing=tracing)
            )
            servers[tracing] = server
            host, port = server.server_address[:2]
            clients[tracing] = ServiceClient(f"http://{host}:{port}")
            # Prime the fingerprint cache, then warm the whole stack
            # (lazy imports, trace ring growth, socket buffers) so the
            # recorded rounds measure steady state.
            for _ in range(3):
                for payload in payloads:
                    clients[tracing].schedule_payload(payload)
        return min(round_overhead() for _ in range(3))
    finally:
        for server in servers.values():
            server.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI")
    args = parser.parse_args(argv)

    instances = 6 if args.quick else 10
    tasks = 20 if args.quick else 40
    procs = 16 if args.quick else 32
    repeats = 3 if args.quick else 5
    concurrency = 6 if args.quick else 8

    payloads = build_pool(instances=instances, tasks=tasks, procs=procs)
    server, _ = start_background_server(allow_shutdown=True)
    host, port = server.server_address[:2]
    base_url = f"http://{host}:{port}"
    print(f"self-hosted service on {base_url}")
    try:
        report = measure_cold_warm(
            base_url, payloads, repeats=repeats, concurrency=concurrency
        )
        mismatches = check_byte_identity(payloads, base_url)
    finally:
        server.close()

    obs_overhead = measure_obs_overhead(
        payloads, repeats=30 if args.quick else 60
    )

    cold, warm = report["cold"], report["warm"]
    print(f"pool: {report['pool_size']} instances "
          f"({tasks} tasks x {procs} procs), {concurrency} client threads")
    print(f"cold : {cold['requests']:5d} requests  {cold['rps']:8.1f} req/s  "
          f"p50={cold['p50_ms']:7.2f}ms  p99={cold['p99_ms']:7.2f}ms")
    print(f"warm : {warm['requests']:5d} requests  {warm['rps']:8.1f} req/s  "
          f"p50={warm['p50_ms']:7.2f}ms  p99={warm['p99_ms']:7.2f}ms")
    print(f"warm/cold speedup: {report['speedup']:.1f}x  "
          f"(bar: {MIN_SPEEDUP:.1f}x)")
    print(f"replayed responses consistent  : {report['consistent']}")
    print(f"byte-identical to direct calls : {mismatches == 0}")
    print(f"tracing+histogram warm-path cost: {obs_overhead:+.1%}  "
          f"(bar: {MAX_OBS_OVERHEAD:.0%})")
    bench = {
        "benchmark": "service_throughput",
        "quick": args.quick,
        "report": report,
        "byte_identity_mismatches": mismatches,
        "min_speedup": MIN_SPEEDUP,
        "obs_overhead_ratio": obs_overhead,
        "max_obs_overhead": MAX_OBS_OVERHEAD,
        "cpu_count": os.cpu_count() or 1,
    }
    print("BENCH " + json.dumps(bench, sort_keys=True))

    failures = []
    if report["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"warm/cold speedup {report['speedup']:.1f}x below the "
            f"{MIN_SPEEDUP:.1f}x bar"
        )
    if not report["consistent"]:
        failures.append("replayed responses differ across warm passes")
    if mismatches:
        failures.append(f"{mismatches} response(s) differ from direct scheduler calls")
    if cold["errors"] or warm["errors"]:
        failures.append(f"request errors: cold={cold['errors']} warm={warm['errors']}")
    if obs_overhead > MAX_OBS_OVERHEAD:
        failures.append(
            f"tracing+histogram warm-path overhead {obs_overhead:.1%} above "
            f"the {MAX_OBS_OVERHEAD:.0%} bar"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
