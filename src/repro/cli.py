"""Command-line interface: ``python -m repro`` or the ``repro-sched`` script.

Sub-commands
------------
``generate``  Generate a synthetic instance (optionally an online arrival
              trace) and write it as JSON.
``schedule``  Schedule an instance (JSON file or generated on the fly) with a
              chosen algorithm and print the metrics and Gantt chart.
``replay``    Replay an online arrival trace with epoch rescheduling,
              streaming per-epoch metrics (see :mod:`repro.online`).
``compare``   Run the EXP-A style comparison sweep and print the summary table.
``mstar``     Print the m*(μ) curve of Figure 8.
``serve``     Run the HTTP scheduling service (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis.experiments import sweep_workloads
from .analysis.gantt import gantt_chart
from .analysis.metrics import evaluate_schedule
from .core import theory
from .exceptions import ModelError
from .model.instance import Instance
from .registry import ALGORITHMS, make_rescheduler, make_scheduler
from .scheduler import Scheduler
from .workloads.arrivals import ARRIVAL_PATTERNS, make_trace
from .workloads.generators import WORKLOAD_FAMILIES, make_workload
from .workloads.ocean import ocean_instance

__all__ = ["main", "build_parser", "ALGORITHMS"]


def _make_scheduler(name: str) -> Scheduler:
    try:
        return make_scheduler(name)
    except ModelError as exc:
        raise SystemExit(str(exc))


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Malleable-task scheduling (Mounié–Rapine–Trystram SPAA'99 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic instance as JSON")
    gen.add_argument("--family", default="mixed", choices=sorted(WORKLOAD_FAMILIES) + ["ocean"])
    gen.add_argument("--tasks", type=int, default=32)
    gen.add_argument("--procs", type=int, default=16)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--arrivals",
        default=None,
        choices=sorted(ARRIVAL_PATTERNS),
        help="attach release times following this arrival pattern "
        "(emits an online trace; incompatible with --family ocean)",
    )
    gen.add_argument("--output", type=Path, default=None, help="JSON output path (stdout by default)")

    sch = sub.add_parser("schedule", help="schedule an instance and print metrics")
    sch.add_argument("--algorithm", default="mrt", choices=sorted(ALGORITHMS))
    sch.add_argument("--input", type=Path, default=None, help="instance JSON (otherwise generate)")
    sch.add_argument("--family", default="mixed", choices=sorted(WORKLOAD_FAMILIES) + ["ocean"])
    sch.add_argument("--tasks", type=int, default=32)
    sch.add_argument("--procs", type=int, default=16)
    sch.add_argument("--seed", type=int, default=0)
    sch.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")

    rep = sub.add_parser(
        "replay", help="replay an online arrival trace with epoch rescheduling"
    )
    rep.add_argument(
        "--trace", type=Path, default=None, help="trace JSON (otherwise generate one)"
    )
    rep.add_argument("--pattern", default="poisson", choices=sorted(ARRIVAL_PATTERNS))
    rep.add_argument("--family", default="mixed", choices=sorted(WORKLOAD_FAMILIES))
    rep.add_argument("--tasks", type=int, default=32)
    rep.add_argument("--procs", type=int, default=16)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument(
        "--rate",
        type=float,
        default=None,
        help="Poisson arrival rate, tasks per time unit (--pattern poisson only)",
    )
    rep.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="arrival horizon (default: the trace's offline lower bound)",
    )
    rep.add_argument(
        "--quantum",
        type=float,
        default=None,
        help="minimum spacing between epoch starts (default: event-driven — "
        "reschedule as soon as the machine drains)",
    )
    rep.add_argument("--algorithm", default="mrt", choices=sorted(ALGORITHMS))
    rep.add_argument(
        "--validate",
        action="store_true",
        help="simulate-and-check the stitched timeline (release dates enforced)",
    )
    rep.add_argument(
        "--compare-offline",
        action="store_true",
        help="also run the clairvoyant offline scheduler on the full trace "
        "and print the competitive ratio",
    )
    rep.add_argument("--json", action="store_true", help="also print a REPLAY JSON line")
    rep.add_argument(
        "--url",
        default=None,
        help="replay against a running service/cluster (streamed POST /replay) "
        "instead of in-process; epoch lines print as frames arrive",
    )

    cmp_ = sub.add_parser("compare", help="run the EXP-A comparison sweep")
    cmp_.add_argument("--tasks", type=int, default=30)
    cmp_.add_argument("--procs", type=int, nargs="+", default=[8, 16, 32])
    cmp_.add_argument("--repetitions", type=int, default=2)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument(
        "--families",
        nargs="+",
        default=["uniform", "mixed", "heavy-tailed", "rigid-heavy"],
        choices=sorted(WORKLOAD_FAMILIES),
    )
    cmp_.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the (instance, scheduler) runs out over N worker processes "
        "(deterministic: the records match the serial run)",
    )

    mstar = sub.add_parser("mstar", help="print the m*(mu) curve of Figure 8")
    mstar.add_argument("--mu-min", type=float, default=0.75)
    mstar.add_argument("--mu-max", type=float, default=0.95)
    mstar.add_argument("--points", type=int, default=21)

    srv = sub.add_parser("serve", help="run the HTTP scheduling service")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8080, help="0 picks an ephemeral port")
    srv.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard the result cache over N worker processes behind a "
        "consistent-hash router (1 = single-process daemon)",
    )
    srv.add_argument(
        "--shard-backend",
        default="process",
        choices=["process", "thread"],
        help="shard worker kind (process falls back to threads in sandboxes)",
    )
    srv.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual nodes per shard on the consistent-hash ring",
    )
    srv.add_argument("--workers", type=int, default=None, help="compute slots")
    srv.add_argument("--cache-capacity", type=int, default=2048)
    srv.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        help="result cache TTL in seconds (default: no expiry)",
    )
    srv.add_argument(
        "--purge-interval",
        type=float,
        default=None,
        help="eagerly drop expired cache entries this often "
        "(seconds; default: once per TTL)",
    )
    srv.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="backpressure bound on in-flight requests (503 beyond it)",
    )
    srv.add_argument(
        "--sample-interval",
        type=float,
        default=1.0,
        help="metric time-series sampling cadence in seconds "
        "(0 disables sampling; history then stays empty)",
    )
    srv.add_argument(
        "--slo-p99-ms",
        type=float,
        default=500.0,
        help="p99 latency objective (ms) for the SLO burn-rate engine "
        "and /healthz health states",
    )
    srv.add_argument(
        "--allow-shutdown",
        action="store_true",
        help="enable POST /shutdown (tests, benchmarks)",
    )
    srv.add_argument(
        "--ready-file",
        type=Path,
        default=None,
        help="write 'host port' here once listening (test/automation hook)",
    )
    srv.add_argument("--verbose", action="store_true", help="log every request")

    return parser


def _load_or_generate(args: argparse.Namespace) -> Instance:
    if getattr(args, "input", None):
        return Instance.from_json(Path(args.input).read_text())
    if args.family == "ocean":
        if getattr(args, "arrivals", None):
            raise SystemExit("--arrivals is not supported with --family ocean")
        return ocean_instance(args.procs, seed=args.seed)
    if getattr(args, "arrivals", None):
        return make_trace(args.arrivals, args.family, args.tasks, args.procs, seed=args.seed)
    return make_workload(args.family, args.tasks, args.procs, seed=args.seed)


def _print_epoch_line(epoch: dict) -> None:
    """One streamed per-epoch metrics line (local replay or NDJSON frame)."""
    certificate = epoch["certificate"] or {}
    print(
        f"epoch {epoch['index']:3d}  t={epoch['start']:10.4g}  "
        f"tasks={epoch['num_tasks']:4d}  makespan={epoch['makespan']:10.4g}  "
        f"wait={epoch['waiting']:8.4g}  compute={epoch['compute_ms']:7.2f}ms  "
        f"guesses={certificate.get('guesses', 0):3d}  "
        f"branch={certificate.get('branch', '-')}",
        flush=True,
    )


def _print_replay_summary(metrics: dict) -> None:
    print(
        f"replay: {metrics['num_epochs']} epochs  makespan={metrics['makespan']:.6g}  "
        f"flow mean/max={metrics['mean_flow']:.4g}/{metrics['max_flow']:.4g}  "
        f"stretch mean/max={metrics['mean_stretch']:.3f}/{metrics['max_stretch']:.3f}  "
        f"utilization={metrics['utilization']:.3f}"
    )
    print(
        f"kernel compute: {metrics['compute_ms']:.2f}ms  "
        f"dual guesses={metrics['guesses']}"
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay an online arrival trace, streaming per-epoch metrics.

    With ``--url`` the replay runs on a live service/cluster via the
    streamed ``POST /replay``: epoch lines print as NDJSON frames arrive
    and the summary comes from the stream's final document.  The trace is
    still built locally either way, so ``--compare-offline`` works
    identically in both modes.
    """
    from .sim.validate import simulate_and_check

    try:
        if args.trace is not None:
            try:
                trace = Instance.from_json(Path(args.trace).read_text())
            except (OSError, ValueError, KeyError) as exc:
                raise SystemExit(f"failed to load trace {args.trace}: {exc}")
        else:
            if args.rate is not None and args.pattern != "poisson":
                raise SystemExit("--rate only applies to --pattern poisson")
            options = {
                key: getattr(args, key)
                for key in ("rate", "horizon")
                if getattr(args, key) is not None
            }
            trace = make_trace(
                args.pattern, args.family, args.tasks, args.procs,
                seed=args.seed, **options,
            )
        rescheduler = (
            None
            if args.url
            else make_rescheduler(algorithm=args.algorithm, quantum=args.quantum)
        )
    except ModelError as exc:
        raise SystemExit(str(exc))
    releases = trace.release_times
    print(
        f"trace: {trace.num_tasks} tasks, m={trace.num_procs}, "
        f"arrival span {float(releases.max() - releases.min()):.4g}, "
        f"algorithm={args.algorithm}, "
        f"quantum={'event-driven' if not args.quantum else f'{args.quantum:g}'}"
    )

    if args.url:
        from .service import ReplayStreamError, ServiceClient, ServiceHTTPError

        try:
            final = ServiceClient(args.url).replay(
                trace=trace,
                algorithm=args.algorithm,
                quantum=args.quantum,
                validate=args.validate,
                on_epoch=_print_epoch_line,
            )
        except (ReplayStreamError, ServiceHTTPError, OSError) as exc:
            raise SystemExit(str(exc))
        epochs = final["result"]["epochs"]
        metrics = {
            k: v for k, v in final["result"].items()
            if k not in ("epochs", "schedule")
        }
        _print_replay_summary(metrics)
        validation = final.get("validation")
        if args.validate and validation is not None:
            metrics["validated"] = True
            print(
                f"validated: simulated makespan "
                f"{validation['simulated_makespan']:.6g}, "
                f"{validation['events']} events, releases respected"
            )
    else:
        result = rescheduler.replay(
            trace, on_epoch=lambda report: _print_epoch_line(report.as_dict())
        )
        epochs = [epoch.as_dict() for epoch in result.epochs]
        metrics = result.metrics()
        _print_replay_summary(metrics)
        if args.validate:
            sim = simulate_and_check(result.schedule, respect_release=True)
            metrics["validated"] = True
            print(
                f"validated: simulated makespan {sim.makespan:.6g}, "
                f"{len(sim.events)} events, releases respected"
            )
    if args.compare_offline:
        offline = _make_scheduler(args.algorithm).schedule(trace)
        ratio = (
            metrics["makespan"] / offline.makespan() if offline.makespan() > 0 else 1.0
        )
        metrics["offline_makespan"] = offline.makespan()
        metrics["competitive_ratio"] = ratio
        print(
            f"clairvoyant offline makespan={offline.makespan():.6g}  "
            f"competitive ratio={ratio:.3f}"
        )
    if args.json:
        metrics["epochs"] = epochs
        print("REPLAY " + json.dumps(metrics, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP scheduling service until interrupted or shut down.

    ``--shards 1`` serves a single-process daemon; more shards run N shard
    workers behind the consistent-hash router.  The daemon's service and
    every shard's come from the same :class:`ShardSpec`.
    """
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    from .obs.slo import SLO
    from .service import (
        ClusterSupervisor, DaemonApp, RouterApp, ShardSpec, ThreadedTransport
    )

    spec = ShardSpec(
        workers=args.workers,
        cache_capacity=args.cache_capacity,
        cache_ttl=args.cache_ttl,
        purge_interval=args.purge_interval,
        max_pending=args.max_pending,
        verbose=args.verbose,
        sample_interval=args.sample_interval or None,
        slo_p99_ms=args.slo_p99_ms,
    )
    try:
        # The service's constructor owns every check of the spec; run it
        # once here, before anything binds or spawns a shard.
        service = spec.build_service()
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    ttl = f", ttl={args.cache_ttl:g}s" if args.cache_ttl else ""
    supervisor = None
    if args.shards == 1:
        app = DaemonApp(
            service, allow_shutdown=args.allow_shutdown, verbose=args.verbose
        )
        name = "scheduling service"
        details = f"workers={service.workers}, cache={service.cache.capacity}{ttl}"
    else:
        service.close()
        supervisor = ClusterSupervisor(
            args.shards, spec=spec, backend=args.shard_backend, vnodes=args.vnodes
        ).start()
        app = RouterApp(
            supervisor,
            allow_shutdown=args.allow_shutdown,
            verbose=args.verbose,
            slo=SLO(p99_ms=args.slo_p99_ms),
        )
        name = "sharded scheduling cluster"
        details = (
            f"shards={supervisor.num_shards}, backend={supervisor.backend}, "
            f"vnodes={supervisor.ring.vnodes}, "
            f"cache={args.cache_capacity}x{supervisor.num_shards}{ttl}"
        )
    try:
        server = ThreadedTransport((args.host, args.port), app, verbose=args.verbose)
    except Exception:
        app.close()
        if supervisor is not None:
            supervisor.close()
        raise
    host, port = server.server_address[:2]
    print(f"{name} listening on http://{host}:{port} ({details})", flush=True)
    if args.ready_file is not None:
        args.ready_file.write_text(f"{host} {port}\n")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()
        app.close()
        if supervisor is not None:
            supervisor.close()
    print(f"{name} stopped", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the CLI; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "generate":
        instance = _load_or_generate(args)
        payload = instance.to_json()
        if args.output:
            args.output.write_text(payload)
            print(f"wrote {instance.num_tasks} tasks, m={instance.num_procs} to {args.output}")
        else:
            print(payload)
        return 0

    if args.command == "schedule":
        instance = _load_or_generate(args)
        scheduler = _make_scheduler(args.algorithm)
        schedule = scheduler.schedule(instance)
        metrics = evaluate_schedule(schedule)
        print(
            f"algorithm={metrics.algorithm} makespan={metrics.makespan:.6g} "
            f"lower_bound={metrics.lower_bound:.6g} ratio<={metrics.ratio:.4f} "
            f"utilization={metrics.utilization:.3f}"
        )
        if args.gantt:
            print(gantt_chart(schedule))
        return 0

    if args.command == "replay":
        return _cmd_replay(args)

    if args.command == "compare":
        result = sweep_workloads(
            families=args.families,
            num_tasks=args.tasks,
            machine_sizes=args.procs,
            repetitions=args.repetitions,
            seed=args.seed,
            workers=args.workers,
        )
        print(result.summary_table())
        return 0

    if args.command == "mstar":
        mus = np.linspace(args.mu_min, args.mu_max, args.points)
        print("mu      k*   k^   m*")
        for mu in mus:
            print(
                f"{mu:.4f}  {theory.k_star(float(mu)):3d}  "
                f"{theory.k_hat(float(mu)):3d}  {theory.m_star(float(mu)):3d}"
            )
        print(f"(anchor: m*(sqrt(3)/2) = {theory.m_star(theory.MU_STAR)})")
        return 0

    if args.command == "serve":
        return _cmd_serve(args)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
