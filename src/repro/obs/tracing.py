"""Contextvar span tracer with deterministic ids and a bounded store.

One :class:`Trace` follows one request through the stack.  Spans opened
with :meth:`Trace.span` nest via a ``contextvars`` context variable, so
the handler thread gets parent/child structure for free; stages timed
outside a ``with`` block (the service's queue-wait and batch-compute
accounting) stamp their own perf-counter interval and attach it with
:meth:`Trace.record_span` instead.

Trace ids come from a seeded :class:`Tracer` counter, not the wall clock
or ``uuid4`` — the same construction order yields the same ids, which
keeps cluster tests reproducible (``tests/test_obs.py`` pins ids per
seed).  Across the router→shard hop the *router's* id travels in the
``X-Repro-Trace-Id`` header and the shard adopts it, so
``GET /trace/<id>`` can stitch both components into one timeline.

The :class:`TraceStore` is a fixed-capacity ring: old traces fall off,
memory stays constant under sustained load, and requests slower than the
configured threshold are summarised into a separate bounded slow log
before eviction can lose them.

Span and metric *names* are pinned in :mod:`repro.obs.names`;
``span()`` and ``record_span()`` raise ``ValueError`` on any other name.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable

from .names import SPAN_NAMES

__all__ = ["Span", "Trace", "TraceStore", "Tracer"]

#: The innermost open span of the trace this context is currently inside,
#: as ``(trace_id, span_id)`` — used only to parent nested spans.
_CURRENT_SPAN: ContextVar[tuple[str, str] | None] = ContextVar(
    "repro-obs-current-span", default=None
)


@dataclass(slots=True)
class Span:
    """One recorded pipeline stage inside a trace."""

    span_id: str
    name: str
    start_ms: float  # offset from the trace's start
    duration_ms: float
    parent_id: str | None = None
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "parent_id": self.parent_id,
            "meta": dict(self.meta),
        }


class Trace:
    """All spans one request produced inside one component.

    The hot path appends raw ``(name, start, end, parent_id, meta)``
    tuples — no :class:`Span` objects, no id strings, no lock (CPython
    list appends and index assignments are atomic) — and materialises
    :class:`Span` objects lazily in :attr:`spans`.  Recording is on every
    request's critical path; reading happens only when somebody asks for
    the trace.  The lock guards only slot *reservation* in span blocks,
    where ``len`` + ``append`` must be atomic across threads.
    """

    __slots__ = (
        "trace_id",
        "component",
        "started_at",
        "duration_ms",
        "_t0",
        "_clock",
        "_spans",
        "_lock",
    )

    def __init__(
        self,
        trace_id: str,
        component: str,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.trace_id = trace_id
        self.component = component
        # Wall-clock epoch for DISPLAY ONLY ("when did this happen").  All
        # duration math — trace duration, span offsets, span durations —
        # runs on the injectable monotonic ``clock``: wall clocks step
        # (NTP, suspend/resume) and a stepped delta is a lie.
        self.started_at = time.time()
        self.duration_ms: float = 0.0
        self._clock = clock
        self._t0 = clock()
        # None = slot reserved by an open span block, filled on exit.
        self._spans: list[tuple | None] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def span(self, name: str, **meta) -> "_SpanBlock":
        """Open a nested span around a code block (same-thread stages).

        The ``with`` block receives the span's ``meta`` dict so it can
        attach results (e.g. ``cache_hit``) before the span closes.  A
        dedicated context-manager class (not ``@contextmanager``) keeps
        the per-span cost low enough for the warm-path overhead gate.
        """
        if name not in SPAN_NAMES:
            raise ValueError(f"span name {name!r} is not in repro.obs.names")
        return _SpanBlock(self, name, meta)

    def record_span(self, name: str, start: float, end: float, **meta) -> None:
        """Attach an already-measured interval (any thread).

        ``start``/``end`` must come from the same monotonic clock the trace
        was created with (``time.perf_counter`` by default) — never from
        ``time.time()``, whose steps would corrupt the offset math.
        """
        if name not in SPAN_NAMES:
            raise ValueError(f"span name {name!r} is not in repro.obs.names")
        self._spans.append((name, start, end, None, meta))

    # ------------------------------------------------------------------ #
    def finish(self) -> "Trace":
        self.duration_ms = (self._clock() - self._t0) * 1000.0
        return self

    @property
    def spans(self) -> list[Span]:
        entries = self._spans[:]  # atomic snapshot; appenders never block
        return [
            Span(
                span_id=f"s{index}",
                name=name,
                start_ms=(start - self._t0) * 1000.0,
                duration_ms=max(0.0, (end - start) * 1000.0),
                parent_id=parent_id,
                meta=meta,
            )
            for index, entry in enumerate(entries)
            if entry is not None
            for (name, start, end, parent_id, meta) in (entry,)
        ]

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "component": self.component,
            "started_at": self.started_at,
            "duration_ms": self.duration_ms,
            "spans": [s.as_dict() for s in self.spans],
        }


class _SpanBlock:
    """Context manager for one :meth:`Trace.span` block."""

    __slots__ = ("_trace", "_name", "_meta", "_index", "_parent_id", "_token", "_start")

    def __init__(self, trace: Trace, name: str, meta: dict) -> None:
        self._trace = trace
        self._name = name
        self._meta = meta

    def __enter__(self) -> dict:
        trace = self._trace
        parent = _CURRENT_SPAN.get()
        self._parent_id = (
            parent[1] if parent and parent[0] == trace.trace_id else None
        )
        # Reserve the id up-front so children opened inside the block can
        # parent onto this span even though it is appended on exit.
        with trace._lock:
            self._index = len(trace._spans)
            trace._spans.append(None)  # type: ignore[arg-type]  # placeholder
        self._token = _CURRENT_SPAN.set((trace.trace_id, f"s{self._index}"))
        self._start = trace._clock()
        return self._meta

    def __exit__(self, exc_type, exc, tb) -> None:
        end = self._trace._clock()
        _CURRENT_SPAN.reset(self._token)
        # Index assignment is atomic; only the reservation needed the lock.
        self._trace._spans[self._index] = (
            self._name, self._start, end, self._parent_id, self._meta
        )


class Tracer:
    """Mints traces with deterministic ids from a seeded counter."""

    def __init__(
        self,
        component: str,
        *,
        seed: int = 0,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.component = component
        self.seed = int(seed)
        self.clock = clock
        self._counter = 0
        self._lock = threading.Lock()

    def next_id(self) -> str:
        with self._lock:
            n = self._counter
            self._counter += 1
        material = f"{self.component}:{self.seed}:{n}".encode()
        return blake2b(material, digest_size=8).hexdigest()

    def start(self, trace_id: str | None = None) -> Trace:
        """Begin a trace, adopting a propagated id when one is given."""
        return Trace(
            trace_id or self.next_id(), self.component, clock=self.clock
        )


class TraceStore:
    """Fixed-capacity trace ring buffer plus a bounded slow-request log."""

    def __init__(
        self,
        capacity: int = 256,
        *,
        slow_ms: float = 500.0,
        slow_capacity: int = 64,
        on_slow: Callable[[dict], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("trace store capacity must be >= 1")
        self.capacity = int(capacity)
        self.slow_ms = float(slow_ms)
        self._traces: OrderedDict[str, Trace] = OrderedDict()
        self._slow_log: deque[dict] = deque(maxlen=int(slow_capacity))
        self._slow_total = 0
        self._on_slow = on_slow
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def add(self, trace: Trace) -> None:
        slow_entry = None
        with self._lock:
            self._traces[trace.trace_id] = trace
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
            if trace.duration_ms >= self.slow_ms:
                self._slow_total += 1
                slow_entry = self._summary(trace)
                self._slow_log.append(slow_entry)
        if slow_entry is not None and self._on_slow is not None:
            self._on_slow(slow_entry)

    def get(self, trace_id: str) -> Trace | None:
        with self._lock:
            return self._traces.get(trace_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    @property
    def slow_total(self) -> int:
        with self._lock:
            return self._slow_total

    # ------------------------------------------------------------------ #
    @staticmethod
    def _summary(trace: Trace) -> dict:
        return {
            "trace_id": trace.trace_id,
            "component": trace.component,
            "started_at": trace.started_at,
            "duration_ms": trace.duration_ms,
            "num_spans": sum(1 for e in trace._spans if e is not None),
        }

    def summaries(self, *, slow_ms: float | None = None) -> list[dict]:
        """Newest-first trace summaries, optionally only those >= slow_ms."""
        with self._lock:
            traces = list(self._traces.values())
        rows = [
            self._summary(t)
            for t in reversed(traces)
            if slow_ms is None or t.duration_ms >= slow_ms
        ]
        return rows

    def slow_log(self) -> list[dict]:
        with self._lock:
            return list(self._slow_log)
