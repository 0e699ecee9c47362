"""Throughput benchmark for the scheduling service (PR 2 tentpole).

Self-hosts a :mod:`repro.service` HTTP server on an ephemeral port and
drives it with the cold/warm load generator:

1. **Cold phase** — a pool of distinct instances (mixed + uniform families
   plus the deterministic adversarial instances), every request a
   fingerprint-cache miss that runs the full scheduler.
2. **Warm phase** — the same pool replayed several times; every request is
   answered from the LRU cache.  The acceptance bar is a ≥ 5× throughput
   speedup of warm over cold (the repeated-instance workload the service
   exists to amortise).
3. **Byte-identity check** — every service ``result`` payload (schedule +
   makespan) must be byte-identical, under canonical JSON, to a direct
   ``Scheduler.schedule()`` call on the same instance in this process.
4. **Transport soak** — the HTTP transport serves the warm pool to
   hundreds of concurrent keep-alive connections and may not drop one.

Emits a ``BENCH {...}`` JSON line for CI artifact collection and exits
non-zero when the speedup bar or the identity check fails.

Run directly (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.model.instance import Instance
from repro.registry import make_scheduler
from repro.service import canonical_json, run_loadtest, start_background_server
from repro.service.core import SchedulerService
from repro.service.loadtest import build_workload_payloads, run_soak


def check_byte_identity(payloads: list[dict], base_url: str) -> int:
    """Replay every payload once and diff against direct scheduler calls.

    Returns the number of mismatching instances (0 = byte-identical).
    """
    from repro.service import ServiceClient

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
    from repro.service import ServiceClient

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


def measure_high_concurrency(
    payloads: list[dict], *, connections: int, requests_per_connection: int
) -> dict:
    """Warm-hit soak of the HTTP transport at high connection fan-in.

    Boots a daemon, primes its fingerprint cache with the full pool, then
    holds ``connections`` concurrent keep-alive connections against it
    (:func:`run_soak`).  Per-request work is identical cache hits, so the
    soak measures how the transport handles hundreds of simultaneous
    sockets.
    """
    from repro.service import ServiceClient

    encoded = [json.dumps(p).encode() for p in payloads]
    server, _ = start_background_server()
    try:
        client = ServiceClient(server.url)
        for payload in payloads:
            client.schedule_payload(payload)
        return run_soak(
            server.url,
            encoded,
            connections=connections,
            requests_per_connection=requests_per_connection,
        )
    finally:
        server.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes for CI")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="acceptance bar for warm/cold throughput (default 5x)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=0.05,
        help="acceptance bar for the warm-path cost of tracing + "
        "histograms (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--soak-connections",
        type=int,
        default=256,
        help="concurrent keep-alive connections in the transport soak",
    )
    args = parser.parse_args(argv)

    instances = 6 if args.quick else 10
    tasks = 20 if args.quick else 40
    procs = 16 if args.quick else 32
    repeats = 3 if args.quick else 5
    concurrency = 6 if args.quick else 8

    server, _ = start_background_server(allow_shutdown=True)
    host, port = server.server_address[:2]
    base_url = f"http://{host}:{port}"
    print(f"self-hosted service on {base_url}")
    try:
        report = run_loadtest(
            base_url,
            families=("mixed", "uniform"),
            instances=instances,
            tasks=tasks,
            procs=procs,
            seed=0,
            repeats=repeats,
            concurrency=concurrency,
            algorithm="mrt",
        )
        payloads = build_workload_payloads(
            families=("mixed", "uniform"),
            instances=instances,
            tasks=tasks,
            procs=procs,
            seed=0,
            algorithm="mrt",
        )
        mismatches = check_byte_identity(payloads, base_url)
    finally:
        server.close()

    obs_overhead = measure_obs_overhead(
        payloads, repeats=30 if args.quick else 60
    )

    soak = measure_high_concurrency(
        payloads,
        connections=args.soak_connections,
        requests_per_connection=8 if args.quick else 20,
    )

    cold, warm = report["cold"], report["warm"]
    print(f"pool: {report['config']['pool_size']} instances "
          f"({tasks} tasks x {procs} procs), {concurrency} client threads")
    print(f"cold : {cold['requests']:5d} requests  {cold['rps']:8.1f} req/s  "
          f"p50={cold['p50_ms']:7.2f}ms  p99={cold['p99_ms']:7.2f}ms")
    print(f"warm : {warm['requests']:5d} requests  {warm['rps']:8.1f} req/s  "
          f"p50={warm['p50_ms']:7.2f}ms  p99={warm['p99_ms']:7.2f}ms")
    print(f"warm/cold speedup: {report['speedup']:.1f}x  "
          f"(bar: {args.min_speedup:.1f}x)")
    print(f"replayed responses consistent  : {report['consistent']}")
    print(f"byte-identical to direct calls : {mismatches == 0}")
    print(f"tracing+histogram warm-path cost: {obs_overhead:+.1%}  "
          f"(bar: {args.max_obs_overhead:.0%})")
    print(f"soak : {soak['ok']:5d} ok of {soak['requests']} over "
          f"{soak['connections']} connections  {soak['ok_rps']:8.1f} req/s  "
          f"rejected={soak['rejected']}  errors={soak['errors']}")
    bench = {
        "benchmark": "service_throughput",
        "quick": args.quick,
        "report": report,
        "byte_identity_mismatches": mismatches,
        "min_speedup": args.min_speedup,
        "obs_overhead_ratio": obs_overhead,
        "max_obs_overhead": args.max_obs_overhead,
        "cpu_count": os.cpu_count() or 1,
        "soak": soak,
    }
    print("BENCH " + json.dumps(bench, sort_keys=True))

    failures = []
    if report["speedup"] < args.min_speedup:
        failures.append(
            f"warm/cold speedup {report['speedup']:.1f}x below the "
            f"{args.min_speedup:.1f}x bar"
        )
    if not report["consistent"]:
        failures.append("replayed responses differ across warm passes")
    if mismatches:
        failures.append(f"{mismatches} response(s) differ from direct scheduler calls")
    if cold["errors"] or warm["errors"]:
        failures.append(f"request errors: cold={cold['errors']} warm={warm['errors']}")
    if obs_overhead > args.max_obs_overhead:
        failures.append(
            f"tracing+histogram warm-path overhead {obs_overhead:.1%} above "
            f"the {args.max_obs_overhead:.0%} bar"
        )
    if soak["errors"]:
        failures.append(
            f"soak had {soak['errors']} transport-level error(s) at "
            f"{args.soak_connections} connections"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
