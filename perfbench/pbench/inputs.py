"""Seeded inputs: the instances, the warm pool, its Zipf sequence, the traces.

Every input is a pure function of ``(seed, stream, index)``, so the same
seed reproduces the same bytes.  Streams keep the set-up warm-up inputs,
the timed inputs and the priming pool disjoint.  The server only ever
receives the explicit JSON built here, never a ``generate`` spec.
"""

from __future__ import annotations

import json
from hashlib import blake2b

import numpy as np

from repro.workloads import make_workload, shelf_overflow_instance
from repro.workloads.arrivals import make_trace

#: Three in four cold requests cycle through these families at 32 x 16.
COLD_FAMILIES = ("mixed", "heavy-tailed", "random-monotonic")
COLD_TASKS, COLD_PROCS = 32, 16
#: Every fourth cold request is a shelf-overflow instance on this many procs:
#: the only input on which the two-shelf branch wins.  The four kinds differ
#: in cost, so the cold stream is one population only per cycle of four.
COLD_CYCLE = 4
OVERFLOW_PROCS = 64

REPLAY_TASKS, REPLAY_PROCS = 64, 16
ZIPF_EXPONENT = 1.1


def derive(seed: int, stream: str, index: int) -> int:
    """A 32-bit generator seed for item ``index`` of ``stream``."""
    digest = blake2b(f"{seed}:{stream}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def cold_instance(seed: int, stream: str, index: int):
    """Instance ``index`` of a cold ``/schedule`` stream."""
    sub = derive(seed, stream, index)
    if index % COLD_CYCLE == COLD_CYCLE - 1:
        return shelf_overflow_instance(OVERFLOW_PROCS, seed=sub)
    family = COLD_FAMILIES[index % COLD_CYCLE]
    return make_workload(family, COLD_TASKS, COLD_PROCS, seed=sub)


def pool_instance(seed: int, index: int):
    """Member ``index`` of the cluster-warm pool (32 x 16, random families)."""
    family = COLD_FAMILIES[index % len(COLD_FAMILIES)]
    return make_workload(family, COLD_TASKS, COLD_PROCS, seed=derive(seed, "pool", index))


def replay_trace(seed: int, stream: str, index: int):
    """Poisson arrival trace ``index`` over the mixed family, 64 x 16."""
    return make_trace(
        "poisson", "mixed", REPLAY_TASKS, REPLAY_PROCS, seed=derive(seed, stream, index)
    )


def schedule_body(instance) -> tuple[bytes, dict]:
    """The ``POST /schedule`` body for ``instance`` and its instance payload."""
    payload = instance.as_dict()
    return json.dumps({"algorithm": "mrt", "instance": payload}).encode(), payload


def replay_body(trace) -> tuple[bytes, dict]:
    """The ``POST /replay`` body (explicit trace, barrier kernel) and its payload."""
    payload = trace.as_dict()
    return json.dumps({"trace": payload, "kernel": "barrier"}).encode(), payload


def zipf_sequence(seed: int, length: int, pool_size: int, exponent: float = ZIPF_EXPONENT) -> list[int]:
    """``length`` pool indices drawn from a Zipf law over ranks 1..pool_size.

    Ranks map to a seeded permutation of the pool, so the popular members
    differ between seeds.
    """
    rng = np.random.default_rng(derive(seed, "zipf", 0))
    weights = 1.0 / np.arange(1, pool_size + 1, dtype=float) ** exponent
    ranks = rng.choice(pool_size, size=length, p=weights / weights.sum())
    order = rng.permutation(pool_size)
    return [int(order[rank]) for rank in ranks]
