"""One benchmark run: set up, measure, tear down, check, report.

The untraced run (``--trace 0``) measures the end-to-end metrics with no
benchmark wrappers and no trace fetches.  The traced run (``--trace 1``)
splits its window in two halves on the same server: a plain half, then a
half that records the benchmark's own spans and fetches each request's
server trace; afterwards it replays the workload's fixed core inputs
in-process under :class:`~pbench.layers.CoreProbe`.  The server's own
default tracing stays on in both runs, because that is what ``serve`` runs.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from . import proctree
from .client import Client, Reply
from .layers import CoreProbe, core_metrics
from .server import HygieneError, ServeProcess, refuse_strays
from .spans import SpanLog
from .stats import cycle_means, mean, median, min_samples, percentile, self_time
from .workloads import WORKLOADS, Workload

MODEL_TIMINGS = ("model.from_dict_ms", "model.fingerprint_ms", "model.validate_ms", "model.to_json_ms")
PROBE_LOOPS = 400_000
PROBE_REPEATS = 5


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: a drift diagnostic, never gated."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return median(times)


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every server process it spawns, to one CPU.

    A closed loop over one connection is sequential: the client, the router
    and a shard take turns.  On one CPU those hand-offs are local context
    switches; spread over two vCPUs each one is a cross-CPU wake-up, which
    a busy hypervisor delays by a varying amount (see README.md).
    """
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


@contextmanager
def collector_paused():
    """Keep the client's own garbage collector out of a timed window."""
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def timed_phase(client: Client, workload: Workload, first_index: int, seconds: float,
                log: SpanLog | None = None, trace_docs: dict | None = None) -> list[Reply]:
    """Closed loop on one connection for ``seconds``; the next request is
    sent only after the previous response has fully arrived."""
    replies: list[Reply] = []
    index = first_index
    with collector_paused():
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if log is None:
                replies.append(workload.send(client, index))
            else:
                log.request = index
                span = log.open("client.request")
                reply = workload.send(client, index)
                log.close(span)
                replies.append(reply)
                if reply.trace_id is not None and trace_docs is not None:
                    span = log.open("client.trace_fetch")
                    trace_docs[index] = client.get_json(f"/trace/{reply.trace_id}")
                    log.close(span)
            index += 1
    return replies


def mark(members: list[int]) -> tuple[float, float, float]:
    """``(wall, server CPU, client CPU)`` seconds at this moment."""
    return time.perf_counter(), proctree.cpu_seconds(members), time.process_time()


def _view(metrics: dict) -> dict:
    """The counters this benchmark reads, from a daemon or cluster ``/metrics``."""
    service = metrics.get("cluster", metrics)
    router = metrics.get("router", {})
    return {
        "requests": service["requests_total"],
        "batches": service["batches"],
        "fast_hits": service["fast_hits"],
        "hits": service["cache"]["hits"],
        "misses": service["cache"]["misses"],
        "plan_hits": service["plan_cache"]["hits"],
        "plan_misses": service["plan_cache"]["misses"],
        "route_hits": router.get("route_cache", {}).get("hits", 0),
        "route_misses": router.get("route_cache", {}).get("misses", 0),
        "routing_errors": router.get("routing_errors", 0),
        "fwd_count": router.get("latency", {}).get("histogram", {}).get("count", 0),
        "fwd_sum_ms": router.get("latency", {}).get("histogram", {}).get("sum_ms", 0.0),
    }


def _delta(after: dict, before: dict) -> dict:
    a, b = _view(after), _view(before)
    return {key: a[key] - b[key] for key in a}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Run:
    """One run of one workload; :meth:`execute` returns the result object."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, traced: bool) -> None:
        self.root = root
        self.workdir = root / ".perfbench"
        self.workdir.mkdir(exist_ok=True)
        self.cpus = os.sched_getaffinity(0)
        # Inputs are built here, before any server exists.
        self.workload: Workload = WORKLOADS[workload](seed, seconds)
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.notes: list[str] = []

    def execute(self) -> dict:
        cpu = pin_to_one_cpu()
        self.notes.append(
            f"benchmark and server pinned to CPU {cpu}" if cpu is not None
            else "could not pin to one CPU; running unpinned"
        )
        probe_ms = host_probe_ms()
        refuse_strays(self.workdir)
        m = self._measure()
        # The server is gone, so the in-process answers may use every CPU.
        os.sched_setaffinity(0, self.cpus)
        failures, attempted = self._check(m)
        own = os.getpid()
        leftover = [pid for pid in proctree.tree(own) if pid != own]
        if leftover:
            raise HygieneError(f"processes {leftover} started by this run are still alive")
        drift = {
            "host.probe_ms": probe_ms,
            "client.cpu_ms_per_req": 1e3 * m["window"][2] / max(1, len(m["timed"])),
        }
        self._record(m, drift)
        metrics = self._layer_metrics(m, drift) if self.traced else self._end_to_end(m)
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": min(attempted, len(failures)),
            "metrics": metrics,
        }

    # ------------------------------------------------------------------ #
    def _measure(self) -> dict:
        """Set up (several boots), run the window(s), tear down."""
        wl = self.workload
        server = ServeProcess(self.root, self.workdir, wl.shards)
        client: Client | None = None
        m: dict = {"setups": [], "traced": [], "trace_docs": {}, "log": SpanLog()}
        try:
            for boot in range(wl.setups):
                start = time.perf_counter()
                client = Client(*server.start())
                m["warm"] = wl.warm(client)
                client.get_json("/metrics")
                m["setups"].append(time.perf_counter() - start)
                members = server.snapshot_tree()
                if boot < wl.setups - 1:
                    client.close()
                    server.stop()

            before = client.get_json("/metrics")
            window = self.seconds / 2 if self.traced else self.seconds
            start = mark(members)
            m["timed"] = timed_phase(client, wl, 0, window)
            m["window"] = [b - a for a, b in zip(start, mark(members))]
            after = client.get_json("/metrics")
            m["rss_mb"] = proctree.peak_rss_mb(members)
            if self.traced:
                m["traced"] = timed_phase(
                    client, wl, len(m["timed"]), self.seconds / 2, m["log"], m["trace_docs"]
                )
                m["layer_delta"] = _delta(client.get_json("/metrics"), after)
            sent = len(m["timed"]) + len(m["traced"])
            # The fixed inputs are sent even if the window closed first;
            # they are checked but kept out of every timing.
            m["extra"] = [wl.send(client, i) for i in range(sent, wl.fixed)]
            m["whole_run"] = _delta(client.get_json("/metrics"), before)
            client.close()
            client = None
            server.stop()
        except BaseException:
            if client is not None:
                client.close()
            server.kill()
            raise
        return m

    def _check(self, m: dict) -> tuple[list[tuple[int, str]], int]:
        """Every correctness check; returns the failures and the attempted count."""
        wl = self.workload
        m["core_log"] = SpanLog()
        m["branches"] = []
        m["core_expected"] = []
        if self.traced and wl.probe_core:
            with CoreProbe(m["core_log"]) as probe:
                m["core_expected"] = wl.core_expected()
            m["branches"] = probe.branches
        elif self.traced:
            m["core_expected"] = wl.core_expected()
        replies = m["timed"] + m["traced"] + m["extra"]
        wl.precompute({wl.key(r.index) for r in replies + m["warm"]}, len(self.cpus))
        results = [(r.index, wl.check(r)) for r in replies]
        results += [(r.index, wl.check(r, priming=True)) for r in m["warm"]]
        failures = [(index, why) for index, why in results if why is not None]
        if m["whole_run"]["plan_hits"]:
            failures.append((-1, f"{m['whole_run']['plan_hits']} plan-cache hits on cold traces"))
        for index, why in failures[:5]:
            self.notes.append(f"FAILED request {index}: {why}")
        return failures, len(results)

    def _record(self, m: dict, drift: dict) -> None:
        """Drift diagnostics and per-request samples, kept for every run."""
        wl = self.workload
        line = {"workload": wl.name, "seed": self.seed, "traced": self.traced,
                "timed_requests": len(m["timed"]), **drift}
        self.notes.append("drift " + json.dumps(line, sort_keys=True))
        with (self.workdir / "runs.jsonl").open("a") as out:
            out.write(json.dumps(line, sort_keys=True) + "\n")
        (self.workdir / f"samples-{wl.name}-{self.seed}-{int(self.traced)}.json").write_text(
            json.dumps({
                "requests": [(r.start, r.latency_ms, r.first_ms) for r in m["timed"]],
                "window": m["window"],
            })
        )
        if self.traced:
            m["log"].write(self.workdir / f"spans-{wl.name}-{self.seed}-client.jsonl")
            m["core_log"].write(self.workdir / f"spans-{wl.name}-{self.seed}-core.jsonl")

    # ------------------------------------------------------------------ #
    def _end_to_end(self, m: dict) -> dict[str, float]:
        wl = self.workload
        timed = m["timed"]
        latencies = [r.latency_ms for r in timed]
        completed = sum(1 for r in timed if r.status == 200 and r.complete)
        wall, server_cpu, _ = m["window"]
        if len(latencies) >= min_samples(99.0):
            # Not gated: about 1% of cluster-warm requests meet the server's
            # once-a-second health probe and metric sampling, so the p99
            # straddles two populations and does not repeat (README.md).
            self.notes.append(f"latency p99 (not gated): {percentile(latencies, 99.0):.3f} ms")
        self.notes.append(
            f"{wl.name}: {len(timed)} timed requests in {wall:.2f} s; "
            f"set-ups {', '.join(f'{s:.3f}' for s in m['setups'])} s"
        )
        return {
            "throughput_rps": completed / wall,
            # Medians over whole input cycles (see Workload.cycle).
            "latency_p50_ms": median(cycle_means(latencies, wl.cycle)),
            "latency_p90_ms": percentile(latencies, 90.0),
            "first_frame_p50_ms": median(cycle_means([r.first_ms for r in timed], wl.cycle)),
            "server_cpu_ms_per_req": 1e3 * server_cpu / len(timed),
            "makespan_ratio_mean": wl.ratio(m["warm"]),
            "setup_s": median(m["setups"]),
            "server_rss_mb": m["rss_mb"],
        }

    def _layer_metrics(self, m: dict, drift: dict) -> dict[str, float]:
        wl = self.workload
        plain, traced, delta = m["timed"], m["traced"], m["layer_delta"]
        samples = _trace_samples(traced, m["trace_docs"])
        out = {name: median(values) for name, values in samples.items() if not name.startswith("trace.")}
        if delta["fwd_count"] and "router.forward_ms" not in out:
            # Streamed replays record no router trace; the router's forward
            # histogram (time to first byte) is the only view of the hop.
            out["router.forward_ms"] = delta["fwd_sum_ms"] / delta["fwd_count"]
        out.update(drift)
        out["trace.coverage"] = _ratio(sum(samples["trace.server_ms"]), sum(samples["trace.client_ms"]))
        out["trace.overhead"] = (
            median(cycle_means([r.latency_ms for r in traced], wl.cycle))
            / median(cycle_means([r.latency_ms for r in plain], wl.cycle)) - 1.0
        )
        out["service.cache_hit_ratio"] = _ratio(delta["hits"], delta["hits"] + delta["misses"])
        # One dispatch is a micro-batch or a trusted-header fast hit.
        out["service.batch_size_mean"] = _ratio(delta["requests"], delta["batches"] + delta["fast_hits"])
        out["router.route_cache_hit_ratio"] = _ratio(
            delta["route_hits"], delta["route_hits"] + delta["route_misses"]
        )
        out["router.retries_total"] = float(delta["routing_errors"])
        if wl.shards > 1:
            out["router.resp_bytes_mean"] = mean(r.nbytes for r in traced)
        out["plan.hit_ratio"] = _ratio(delta["plan_hits"], delta["plan_hits"] + delta["plan_misses"])

        # In-process figures over the workload's fixed core inputs.
        out.update(core_metrics(m["core_log"], m["branches"]))
        for name in MODEL_TIMINGS:
            values = [e.timings[name] for e in m["core_expected"] if name in e.timings]
            if values:
                out[name] = median(values)
        replays = [e for e in m["core_expected"] if hasattr(e, "first_epoch_ms")]
        if replays:
            out["online.first_epoch_ms"] = median(e.first_epoch_ms for e in replays)
            # Over the fixed core traces, so the count repeats for a seed;
            # the checks hold the server's epochs equal to these.
            out["online.epochs_per_replay"] = mean(len(e.epoch_bounds) for e in replays)
        return out


def _trace_samples(traced: list[Reply], trace_docs: dict[int, dict]) -> dict[str, list[float]]:
    """Per-request layer figures from the server traces (or replay frames)."""
    samples: dict[str, list[float]] = {"trace.server_ms": [], "trace.client_ms": []}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    for reply in traced:
        if reply.frames:
            # A streamed replay: the server records no trace, but the final
            # frame carries its own elapsed time and each epoch's compute.
            final = json.loads(reply.frames[-1])
            epochs = [json.loads(frame)["epoch"] for frame in reply.frames[:-1]]
            root_ms = final["elapsed_ms"]
            for epoch in epochs:
                add("online.epoch_ms", epoch["compute_ms"])
        elif reply.index in trace_docs:
            components = trace_docs[reply.index]["components"]
            root = components[0]
            root_ms = root["duration_ms"]
            spans: dict[str, list[dict]] = {}
            for component in components:
                for span in component["spans"]:
                    spans.setdefault(span["name"], []).append(span)

            def total(name: str) -> float:
                return sum(span["duration_ms"] for span in spans.get(name, ()))

            for name in ("parse", "serialize"):
                add(f"server.{name}_ms", total(name))
            for name in ("fingerprint", "cache_lookup", "queue_wait", "batch_compute"):
                add(f"service.{name}_ms", total(name))
            add("shard.fast_hit_ms", total("fast_hit"))
            if root["component"] == "router":
                forwards = [s for s in root["spans"] if s["name"] == "forward"]
                add("router.route_ms", total("route"))
                add("router.forward_ms", sum(s["duration_ms"] for s in forwards))
                add("router.self_ms", self_time(
                    0.0, root_ms,
                    ((s["start_ms"], s["start_ms"] + s["duration_ms"]) for s in forwards),
                ))
        else:
            continue
        add("server.request_ms", root_ms)
        add("net.client_gap_ms", reply.latency_ms - root_ms)
        add("trace.server_ms", root_ms)
        add("trace.client_ms", reply.latency_ms)
    return samples
