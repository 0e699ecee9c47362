"""The three workloads: what set-up sends, what one timed request is, how
each response is checked.

``schedule-cold``  single daemon; every request a distinct instance (all misses).
``cluster-warm``   router + 2 shards; a Zipf sequence over a primed pool (all hits).
``replay-stream``  router + 2 shards; streamed barrier replays of distinct traces.

Each workload is one population, so a percentile never straddles two
kinds of request: cluster-warm is all hits and replay-stream all cold
barrier replays (the checks assert both on every response), and
schedule-cold, which cycles through four kinds of instance, is measured
per cycle (``Workload.cycle``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from . import inputs
from .checks import Expected, ExpectedReplay, replay_ok, schedule_ok
from .client import Client, Reply


def pool_map(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]``, on ``workers`` processes when
    there are at least two and enough items to share.

    The pool forks: a ``spawn`` pool also starts multiprocessing's
    resource tracker, a process that outlives the pool and the run.
    Leaving the ``with`` block joins every worker.
    """
    if workers < 2 or len(items) < 16:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items, chunksize=8))


class Workload:
    name = ""
    shards = 1
    path = "/schedule"
    #: Boots per run; ``setup_s`` is their median.
    setups = 3
    #: The first ``fixed`` timed inputs are always sent (after the window
    #: if need be), so ``makespan_ratio_mean`` covers the same inputs on
    #: every run of a seed.
    fixed = 0
    #: Inputs the traced run recomputes in-process under the core probe.
    core_inputs = 0
    #: Whether the traced run times the core on them (a workload whose
    #: timed phase computes nothing reports no core figures).
    probe_core = True
    #: Inputs generated before the server boots, per second of window.
    inputs_per_second = 0
    expected_cls: type = Expected
    #: ``cache_hit`` every timed response must carry (priming always misses).
    expect_hit = False
    #: Requests per cycle of input kinds; latency medians are taken over
    #: the mean latency of each whole cycle.
    cycle = 1

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.bodies: list[bytes] = []
        self.payloads: list[dict] = []
        self._expected: dict[int, object] = {}
        # Pre-generated, on every CPU, so the closed loop spends no client
        # time building inputs; more are made on demand if the server
        # outruns this.
        self.extend(
            max(self.fixed, self.core_inputs, int(seconds * self.inputs_per_second)),
            workers=len(os.sched_getaffinity(0)),
        )

    def make(self, index: int) -> tuple[bytes, dict]:
        """Body and payload of input ``index``."""
        raise NotImplementedError

    def extend(self, count: int, workers: int = 1) -> None:
        for body, payload in pool_map(self.make, list(range(len(self.bodies), count)), workers):
            self.bodies.append(body)
            self.payloads.append(payload)

    def key(self, index: int) -> int:
        """Input behind request ``index`` (negative indices are set-up traffic)."""
        return index

    def warm(self, client: Client) -> list[Reply]:
        """Set-up traffic after boot; returns the replies to be checked."""
        raise NotImplementedError

    def send(self, client: Client, index: int) -> Reply:
        key = self.key(index)
        if key >= len(self.bodies):
            self.extend(key + 32)
        return client.post(index, self.path, self.bodies[key])

    def expected(self, key: int):
        if key not in self._expected:
            self._expected[key] = self.expected_cls(self.payloads[key])
        return self._expected[key]

    def precompute(self, keys: set[int], workers: int) -> None:
        """Compute the in-process answers for ``keys`` on ``workers`` processes."""
        missing = sorted(k for k in keys if k not in self._expected)
        answers = pool_map(self.expected_cls, [self.payloads[k] for k in missing], workers)
        self._expected.update(zip(missing, answers))

    def check(self, reply: Reply, *, priming: bool = False) -> str | None:
        """``None`` when ``reply`` passes every correctness check."""
        if reply.status != 200:
            return f"status {reply.status}"
        if not reply.complete:
            return "response truncated"
        return schedule_ok(
            reply.body, self.expected(self.key(reply.index)),
            cache_hit=self.expect_hit and not priming,
        )

    def ratio(self, warm: list[Reply]) -> float:
        """``makespan_ratio_mean`` over this seed's fixed inputs."""
        return sum(self.expected(k).ratio for k in range(self.fixed)) / self.fixed

    def core_expected(self) -> list:
        return [self.expected(k) for k in range(self.core_inputs)]


class ScheduleCold(Workload):
    name = "schedule-cold"
    setups = 5
    fixed = 64
    core_inputs = 48
    inputs_per_second = 90
    cycle = inputs.COLD_CYCLE
    WARM_REQUESTS = 4

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.warm_bodies = [
            inputs.schedule_body(inputs.cold_instance(seed, "warmup", i))[0]
            for i in range(self.WARM_REQUESTS)
        ]

    def make(self, index: int) -> tuple[bytes, dict]:
        return inputs.schedule_body(inputs.cold_instance(self.seed, "timed", index))

    def warm(self, client: Client) -> list[Reply]:
        for i, body in enumerate(self.warm_bodies):
            reply = client.post(-1 - i, self.path, body)
            if reply.status != 200:
                raise RuntimeError(f"warm-up request answered {reply.status}")
        return []


class ClusterWarm(Workload):
    name = "cluster-warm"
    shards = 2
    #: Far below the router route cache (4096) and the shard caches (2 x 2048).
    POOL = 64
    core_inputs = POOL
    probe_core = False
    expect_hit = True

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.sequence = inputs.zipf_sequence(seed, max(1000, int(seconds * 2000)), self.POOL)

    def make(self, index: int) -> tuple[bytes, dict]:
        return inputs.schedule_body(inputs.pool_instance(self.seed, index))

    def key(self, index: int) -> int:
        if index < 0:
            return -1 - index  # priming request for pool member -1 - index
        return self.sequence[index % len(self.sequence)]

    def warm(self, client: Client) -> list[Reply]:
        """The priming pass: every pool member once, each a cold miss."""
        replies = [client.post(-1 - i, self.path, body) for i, body in enumerate(self.bodies)]
        for reply in replies:
            if reply.status != 200:
                raise RuntimeError(f"priming request answered {reply.status}")
        return replies

    def ratio(self, warm: list[Reply]) -> float:
        """Over the pool, from the priming responses of the last set-up."""
        ratios = [
            json.loads(r.body)["result"]["makespan"] / self.expected(self.key(r.index)).bound
            for r in warm
        ]
        return sum(ratios) / len(ratios)


class ReplayStream(Workload):
    name = "replay-stream"
    shards = 2
    path = "/replay"
    fixed = 128
    core_inputs = 6
    inputs_per_second = 32
    expected_cls = ExpectedReplay
    WARM_REPLAYS = 2

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.warm_bodies = [
            inputs.replay_body(inputs.replay_trace(seed, "warmup", i))[0]
            for i in range(self.WARM_REPLAYS)
        ]

    def make(self, index: int) -> tuple[bytes, dict]:
        return inputs.replay_body(inputs.replay_trace(self.seed, "timed", index))

    def warm(self, client: Client) -> list[Reply]:
        for i, body in enumerate(self.warm_bodies):
            reply = client.stream(-1 - i, self.path, body)
            if reply.status != 200 or not reply.complete:
                raise RuntimeError(f"warm-up replay answered {reply.status}")
        return []

    def send(self, client: Client, index: int) -> Reply:
        if index >= len(self.bodies):
            self.extend(index + 16)
        return client.stream(index, self.path, self.bodies[index])

    def check(self, reply: Reply, *, priming: bool = False) -> str | None:
        if reply.status != 200:
            return f"status {reply.status}"
        if not reply.complete:
            return "stream truncated"
        return replay_ok(reply.frames, self.expected(reply.index))


WORKLOADS = {cls.name: cls for cls in (ScheduleCold, ClusterWarm, ReplayStream)}
