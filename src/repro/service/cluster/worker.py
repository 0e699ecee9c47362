"""Shard worker processes: each owns a disjoint slice of the result cache.

A shard is simply a full single-process scheduling daemon — a
:class:`~repro.service.core.SchedulerService` inside a
:class:`~repro.service.server.DaemonApp`, bound by
:class:`~repro.service.http.ThreadedTransport` to an ephemeral loopback port —
created with ``trust_fast_headers=True`` so cache hits for the keys it owns
are served locally, straight from the handler thread.
Shared-nothing by construction: the router partitions the key space with the
:class:`~repro.service.cluster.ring.ShardRing`, so no entry ever exists on
two shards and there is no cross-shard invalidation; eviction is TTL expiry
(plus the service's periodic purge) and the explicit ``POST /purge``
control message.

Two backends, one interface (:class:`ShardHandle`):

* :class:`ProcessShardHandle` — ``multiprocessing.Process`` running
  :func:`run_shard`; real parallelism, the production shape.  The child
  reports ``(shard_id, host, port)`` over a pipe once its socket is bound.
* :class:`ThreadShardHandle` — the same HTTP server on a daemon thread in
  the current process; no extra parallelism, but identical wire behaviour.
  Used as the automatic fallback where subprocesses are forbidden
  (restricted sandboxes — the same degradation strategy as
  :func:`repro.analysis.experiments.make_pool`) and by fast tests.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import asdict, dataclass
from multiprocessing.connection import Connection

from ...exceptions import ClusterError
from ...obs.slo import SLO
from ..core import SchedulerService
from ..http import ThreadedTransport
from ..server import DaemonApp

__all__ = [
    "ProcessShardHandle",
    "ShardHandle",
    "ShardSpec",
    "ThreadShardHandle",
    "run_shard",
]


@dataclass(frozen=True)
class ShardSpec:
    """Picklable per-shard service configuration.

    The :class:`~repro.service.core.SchedulerService` knobs ``serve``
    exposes (no clock — it cannot cross a process boundary — and the SLO
    as one ``slo_p99_ms`` number), plus the app's ``verbose``.  Every shard
    of a cluster runs the same spec; the *capacity* of the cluster cache is
    therefore ``shards * cache_capacity``.
    """

    workers: int | None = None
    cache_capacity: int = 2048
    cache_ttl: float | None = None
    purge_interval: float | None = None
    plan_cache_capacity: int = 512
    max_pending: int = 1024
    verbose: bool = False
    tracing: bool = True
    trace_capacity: int = 256
    slow_ms: float = 500.0
    sample_interval: float | None = 1.0
    history_capacity: int = 720
    slo_p99_ms: float = 500.0

    def build_service(self, shard_id: int | None = None) -> SchedulerService:
        kwargs = asdict(self)
        kwargs.pop("verbose")
        # The SLO rides the spec as its scalar knob (an SLO dataclass would
        # pickle fine, but one number keeps the CLI surface flat).
        kwargs["slo"] = SLO(p99_ms=kwargs.pop("slo_p99_ms"))
        if shard_id is not None:
            # Component label of every trace this shard records — the
            # stitched /trace/<id> document tells shards apart by it.
            kwargs["trace_component"] = f"shard-{shard_id}"
        return SchedulerService(**kwargs)


def _bind_shard(shard_id: int, spec: ShardSpec):
    """Build shard ``shard_id``'s daemon app and bind it on a loopback port.

    Returns the unstarted server (``port=0`` picks an ephemeral port).
    ``allow_shutdown`` stays off: the supervisor stops shards itself, and
    an open ``/shutdown`` on the shard port would bypass the router's
    shutdown gate.
    """
    app = DaemonApp(
        spec.build_service(shard_id), trust_fast_headers=True, verbose=spec.verbose
    )
    return ThreadedTransport(("127.0.0.1", 0), app, verbose=spec.verbose)


def run_shard(shard_id: int, spec: ShardSpec, conn: Connection) -> None:
    """Process entry point of one shard worker.

    Binds an ephemeral loopback port, reports ``(shard_id, host, port)``
    through ``conn`` and serves until terminated by the supervisor.
    Module-level so it is picklable under every multiprocessing start
    method.
    """
    server = _bind_shard(shard_id, spec)
    host, port = server.server_address[:2]
    conn.send((shard_id, host, int(port)))
    conn.close()
    try:
        server.serve_forever()
    finally:  # pragma: no cover - usually killed by the supervisor
        server.server_close()
        server.app.close()


class ShardHandle:
    """Lifecycle interface shared by the process and thread backends."""

    kind: str = "?"
    shard_id: int
    url: str

    def start(self, ready_timeout: float) -> str:
        raise NotImplementedError

    def is_alive(self) -> bool:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError


class ProcessShardHandle(ShardHandle):
    """One shard as a daemon subprocess."""

    kind = "process"

    def __init__(
        self,
        shard_id: int,
        spec: ShardSpec,
        *,
        mp_context: multiprocessing.context.BaseContext | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.spec = spec
        self._ctx = mp_context or multiprocessing.get_context()
        self.process: multiprocessing.Process | None = None
        self.url = ""

    def start(self, ready_timeout: float = 30.0) -> str:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        self.process = self._ctx.Process(
            target=run_shard,
            args=(self.shard_id, self.spec, child_conn),
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # child's end lives in the child now
        try:
            if not parent_conn.poll(ready_timeout):
                raise ClusterError(
                    f"shard {self.shard_id} did not report ready within "
                    f"{ready_timeout:g}s"
                )
            _, host, port = parent_conn.recv()
        except (EOFError, OSError) as exc:
            self.stop()  # reap the half-started child — never leak it
            raise ClusterError(
                f"shard {self.shard_id} died before reporting its address"
            ) from exc
        except ClusterError:
            self.stop()
            raise
        finally:
            parent_conn.close()
        self.url = f"http://{host}:{port}"
        return self.url

    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def stop(self) -> None:
        if self.process is None:
            return
        # Shards are stateless beyond their in-memory cache slice: a hard
        # terminate is a clean shutdown (no durable state to flush).
        self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=5.0)


class ThreadShardHandle(ShardHandle):
    """One shard as an in-process daemon thread (sandbox fallback, tests)."""

    kind = "thread"

    def __init__(self, shard_id: int, spec: ShardSpec) -> None:
        self.shard_id = shard_id
        self.spec = spec
        self._server = None
        self._thread: threading.Thread | None = None
        self.url = ""

    def start(self, ready_timeout: float = 30.0) -> str:
        self._server = _bind_shard(self.shard_id, self.spec)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"repro-shard-{self.shard_id}",
            daemon=True,
        )
        self._thread.start()
        host, port = self._server.server_address[:2]
        self.url = f"http://{host}:{port}"
        return self.url

    def is_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None
