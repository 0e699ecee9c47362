"""Repo-wide contracts that are not about one module.

Each class below pins one contract that clients, warm caches or
concurrent callers rely on.  They replaced the static rules of the
retired in-house linter:

* ``TestSerializedShapes`` (was RL003, shapes half) builds a real object
  for every class that defines ``as_dict`` and compares the keys it emits
  with :data:`SCHEMAS`; a walk over every ``repro`` module fails when a
  new ``as_dict`` appears that the table does not list.  The result cache
  and the wire bytes derive from these shapes, so a shape change must be
  a deliberate edit of the table.
* ``TestFingerprintDigests`` (was RL003, domain-tag half) pins golden hex
  digests of ``profile_fingerprint`` and ``plan_key``.  They catch any
  change to the hashed bytes, not only a renamed tag; a change cold-starts
  every warm shard and plan cache.
* ``TestRegisteredSchedulers`` (was RL006) instantiates every entry of
  ``ALGORITHMS`` and checks it has its own ``name`` and a ``schedule``
  method.
* ``TestLockDiscipline`` (was RL004) is a small ``ast`` audit of the
  service layer and the allotment engine: an attribute a class reads or writes under
  ``with self.<lock>:`` somewhere, and writes after construction, must not
  be touched outside a lock scope elsewhere.  The ``ClusterSupervisor._closed``
  race was found this way.
* ``TestObservabilityNames`` (was RL007) pins the runtime side of
  :mod:`repro.obs.names`: both span entry points accept every declared
  name and reject a near-miss, every name constant is registered, and
  every declared metric family renders under Prometheus naming rules.
* ``TestErrorMapping`` (was RL005 and RL008) pins the one error mapper:
  each exception class answers its documented status and body, both from
  :func:`map_exception` and through :meth:`App.handle`.
* ``TestTimeCoincidence`` (was RL001) pins the scale-aware tolerance of
  :func:`times_close`, the one sanctioned time comparison.
* ``TestDeterministicSchedules`` (was RL002) checks that every registered
  scheduler gives byte-identical JSON for two separate runs on two
  separately generated copies of one instance.
"""

from __future__ import annotations

import ast
import importlib
import json
import math
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

import repro
from repro.exceptions import (
    InvalidScheduleError,
    ModelError,
    MonotonicityError,
    SchedulingError,
    ServiceOverloadedError,
)
from repro.model.instance import Instance, profile_fingerprint
from repro.model.task import MalleableTask
from repro.obs import names
from repro.obs.histogram import LatencyHistogram
from repro.obs.prometheus import _Exposition
from repro.obs.slo import SLO
from repro.obs.timeseries import MetricRing
from repro.obs.tracing import Tracer
from repro.online import EpochRescheduler, PlanCache
from repro.online.plancache import plan_key
from repro.registry import ALGORITHMS, make_scheduler
from repro.scheduler import Scheduler
from repro.service.cache import LRUTTLCache
from repro.service.http.app import App, Request, Route
from repro.service.http.errors import map_exception, oversized_body_response
from repro.sim.events import times_close
from repro.workloads.arrivals import make_trace
from repro.workloads.generators import make_workload

SRC = Path(repro.__file__).resolve().parent


def golden_instance() -> Instance:
    """A fixed 4-task, 3-processor instance (no generator involved)."""
    return Instance.from_profiles(
        [[6.0, 3.5, 2.5], [4.0, 2.0, 1.5], [3.0, 3.0, 3.0], [9.0, 4.75, 3.25]],
        name="golden",
    )


# ---------------------------------------------------------------------- #
# serialized shapes
# ---------------------------------------------------------------------- #
#: ``module.Class`` (below ``repro``) -> the top-level keys of its ``as_dict``.
SCHEMAS: dict[str, frozenset[str]] = {
    "model.task.MalleableTask": frozenset({"name", "times", "release"}),
    "model.instance.Instance": frozenset({"name", "num_procs", "tasks"}),
    "model.schedule.Schedule": frozenset({"algorithm", "entries"}),
    "online.epoch.EpochReport": frozenset(
        {"index", "start", "end", "num_tasks", "makespan", "waiting",
         "compute_ms", "certificate"}
    ),
    "obs.histogram.LatencyHistogram": frozenset(
        {"scheme", "count", "sum_ms", "min_ms", "max_ms", "counts"}
    ),
    "obs.tracing.Span": frozenset(
        {"span_id", "name", "start_ms", "duration_ms", "parent_id", "meta"}
    ),
    "obs.tracing.Trace": frozenset(
        {"trace_id", "component", "started_at", "duration_ms", "spans"}
    ),
    "obs.timeseries.MetricSample": frozenset({"t", "gauges", "counters", "latency"}),
    "obs.timeseries.WindowDelta": frozenset(
        {"duration_s", "samples", "counters", "gauges", "latency"}
    ),
    "obs.slo.SLO": frozenset(
        {"p99_ms", "availability", "fast_window_s", "slow_window_s",
         "fast_burn_threshold", "slow_burn_threshold"}
    ),
    "service.cache.CacheStats": frozenset(
        {"hits", "misses", "evictions_lru", "evictions_ttl", "expired_purged",
         "hit_rate"}
    ),
}

#: The keys of an MRT epoch's ``certificate`` block.
CERTIFICATE_KEYS = frozenset({"guesses", "branch", "lower_bound", "ratio_to_lower_bound"})

#: The keys of ``ReplayResult.metrics()``, the summary of ``POST /replay``.
REPLAY_METRICS_KEYS = frozenset(
    {"kernel", "algorithm", "quantum", "num_epochs", "num_tasks", "makespan",
     "mean_flow", "max_flow", "mean_stretch", "max_stretch", "utilization",
     "compute_ms", "guesses"}
)

#: The keys of each record in ``Schedule.as_dict()["entries"]``.
SCHEDULE_ENTRY_KEYS = frozenset(
    {"task_index", "start", "first_proc", "num_procs", "duration"}
)


def _trace():
    trace = Tracer("service", seed=0).start()
    with trace.span(names.SPAN_PARSE):
        pass
    return trace.finish()


def _histogram() -> LatencyHistogram:
    histogram = LatencyHistogram()
    histogram.observe(3.0)
    return histogram


def _ring() -> MetricRing:
    ring = MetricRing(interval=None)
    ring.record({"queue_depth": 1.0}, {"requests": 1}, _histogram().as_dict(), t=1.0)
    ring.record({"queue_depth": 2.0}, {"requests": 4}, _histogram().as_dict(), t=2.0)
    return ring


def _cache_stats():
    cache = LRUTTLCache(capacity=1)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    return cache.stats


#: One real object per :data:`SCHEMAS` entry, built the way the code builds it.
BUILDERS = {
    "model.task.MalleableTask": lambda: MalleableTask("t", [2.0, 1.5], release_time=1.0),
    "model.instance.Instance": golden_instance,
    "model.schedule.Schedule": lambda: make_scheduler("mrt").schedule(golden_instance()),
    "online.epoch.EpochReport": lambda: EpochRescheduler()
    .replay(make_trace("poisson", "mixed", 6, 4, seed=1))
    .epochs[0],
    "obs.histogram.LatencyHistogram": _histogram,
    "obs.tracing.Span": lambda: _trace().spans[0],
    "obs.tracing.Trace": _trace,
    "obs.timeseries.MetricSample": lambda: _ring().samples()[0],
    "obs.timeseries.WindowDelta": lambda: _ring().window(10.0, now=2.0),
    "obs.slo.SLO": SLO,
    "service.cache.CacheStats": _cache_stats,
}


def _classes_with_as_dict(module) -> set[str]:
    """Every class defined in ``module`` (nested ones included) whose own
    namespace defines ``as_dict``, as ``module.Class`` below ``repro``."""
    found = set()
    stack = [
        obj for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]
    while stack:
        cls = stack.pop()
        if "as_dict" in vars(cls):
            found.add(f"{cls.__module__.removeprefix('repro.')}.{cls.__qualname__}")
        stack += [
            obj for obj in vars(cls).values()
            if isinstance(obj, type) and obj.__qualname__.startswith(cls.__qualname__ + ".")
        ]
    return found


class TestSerializedShapes:
    @pytest.mark.parametrize("qualname", sorted(SCHEMAS))
    def test_as_dict_keys_match_the_table(self, qualname):
        obj = BUILDERS[qualname]()
        assert f"{type(obj).__module__}.{type(obj).__qualname__}" == f"repro.{qualname}"
        document = obj.as_dict()
        assert set(document) == SCHEMAS[qualname]
        if qualname == "model.schedule.Schedule":
            assert document["entries"]
            for entry in document["entries"]:
                assert set(entry) == SCHEDULE_ENTRY_KEYS
        if qualname == "online.epoch.EpochReport":
            assert set(document["certificate"]) == CERTIFICATE_KEYS

    def test_replay_metrics_keys_match_the_table(self):
        result = EpochRescheduler().replay(make_trace("poisson", "mixed", 6, 4, seed=1))
        assert set(result.metrics()) == REPLAY_METRICS_KEYS

    def test_every_as_dict_class_is_in_the_table(self):
        found = set()
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            found |= _classes_with_as_dict(importlib.import_module(info.name))
        assert found == set(SCHEMAS)


# ---------------------------------------------------------------------- #
# fingerprint digests
# ---------------------------------------------------------------------- #
class TestFingerprintDigests:
    """Golden values computed by the code before these tests existed.

    A failure here means every cached result or plan keyed by the old
    digest is unreachable.  If that is intended, bump the domain tag's
    version suffix and regenerate the literal by running the code; never
    edit it by hand.
    """

    def test_profile_fingerprint_without_releases(self):
        instance = golden_instance()
        expected = "9e7ebf506b28146a00cc8b772492d2f047661cff446a1b360514cdfc8cfcd140"
        assert profile_fingerprint(3, instance.times_matrix) == expected
        assert instance.fingerprint() == expected

    def test_profile_fingerprint_with_releases(self):
        instance = golden_instance().with_releases([0.0, 1.5, 0.25, 4.0])
        expected = "cb72a05a61927a42b5c2182a6cc44f2a2fd2134d530ef0a57a345615a48040f3"
        assert (
            profile_fingerprint(3, instance.times_matrix, instance.release_times)
            == expected
        )
        assert instance.fingerprint() == expected

    def test_plan_key(self):
        batch = make_trace("poisson", "mixed", 8, 4, seed=9)
        assert batch.fingerprint() == (
            "3fc9e4f7cbfd9d3bc3ca2c2836dd51c69a7a83e15ea3af3fa2ebe4c9349c3ae2"
        )
        key = plan_key(batch, "mrt", PlanCache.params_json(None))
        assert key == "2c69981ddc8f7202f8e49916512b43f2"


# ---------------------------------------------------------------------- #
# scheduler registry
# ---------------------------------------------------------------------- #
class TestRegisteredSchedulers:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_scheduler_has_a_name_and_a_schedule_method(self, name):
        scheduler = make_scheduler(name)
        assert isinstance(scheduler.name, str)
        assert scheduler.name and scheduler.name != Scheduler.name
        assert callable(scheduler.schedule)


# ---------------------------------------------------------------------- #
# lock discipline
# ---------------------------------------------------------------------- #
#: Method names that mutate their receiver in place.
MUTATORS = frozenset(
    {"add", "append", "appendleft", "clear", "discard", "extend", "insert",
     "pop", "popitem", "popleft", "remove", "setdefault", "sort", "update"}
)


def _self_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _accesses(method: ast.FunctionDef, locks: set[str], held: bool) -> list[tuple]:
    """``(attr, line, locked, is_write)`` for each ``self.attr`` in ``method``.

    Nested functions and lambdas are skipped: the lock state when they
    run is unknown.  A call to a mutating method counts as a write.
    ``held`` marks a method whose callers hold the lock.
    """
    found: list[tuple] = []

    def record(node, attr, locked, write):
        if attr not in locks:
            found.append((attr, node.lineno, locked, write))

    def visit(node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.With):
            inner = locked or any(_self_attr(i.context_expr) in locks for i in node.items)
            for item in node.items:
                visit(item.context_expr, locked)
            for stmt in node.body:
                visit(stmt, inner)
            return
        attr = _self_attr(node)
        if attr is not None:
            record(node, attr, locked, isinstance(node.ctx, (ast.Store, ast.Del)))
            return
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            attr = _self_attr(node.value)
            if attr is not None:
                record(node.value, attr, locked, True)
                visit(node.slice, locked)
                return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
        ):
            attr = _self_attr(node.func.value)
            if attr is not None:
                record(node.func.value, attr, locked, True)
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    visit(arg, locked)
                return
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    for stmt in method.body:
        visit(stmt, held)
    return found


def lock_violations(source: str, held: frozenset[str] = frozenset()) -> list[str]:
    """Every unlocked access to a lock-guarded attribute in ``source``.

    A lock is any ``self`` attribute whose name contains ``lock`` and that
    is assigned or used in a ``with``.  An attribute is guarded when some
    method touches it under a lock and some method other than ``__init__``
    writes it.  ``__init__`` itself is exempt: construction happens before
    the object is shared.  The methods named ``Class.method`` in ``held``
    are only called with the lock held, so their whole body counts as
    locked.
    """
    violations = []
    for cls in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)):
        locks = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.With):
                exprs = [item.context_expr for item in node.items]
            else:
                exprs = node.targets if isinstance(node, ast.Assign) else []
            locks |= {a for a in map(_self_attr, exprs) if a and "lock" in a.lower()}
        if not locks:
            continue
        methods = [
            s for s in cls.body if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        accesses = [
            (m.name, *a)
            for m in methods
            for a in _accesses(m, locks, f"{cls.name}.{m.name}" in held)
        ]
        under_lock = {attr for _, attr, _, locked, _ in accesses if locked}
        written_late = {
            attr for name, attr, _, _, write in accesses if write and name != "__init__"
        }
        guarded = (under_lock & written_late) - {m.name for m in methods}
        violations += [
            f"{cls.name}.{name} line {line}: {attr!r} "
            f"{'written' if write else 'read'} outside its lock"
            for name, attr, line, locked, write in accesses
            if attr in guarded and not locked and name != "__init__"
        ]
    return violations


#: Modules under the lock audit: the service layer, whose objects serve
#: concurrent connections, and the allotment engine, which the experiment
#: runner's thread fallback shares across threads.
LOCK_AUDITED = sorted(
    p.relative_to(SRC).as_posix() for p in (SRC / "service").rglob("*.py")
) + ["core/allotment_engine.py"]

#: Methods whose docstring says the caller holds the lock.
CALLER_HOLDS_LOCK = frozenset({"AllotmentEngine._piece_number"})


class TestLockDiscipline:
    @pytest.mark.parametrize("path", LOCK_AUDITED)
    def test_module_touches_guarded_attributes_under_their_lock(self, path):
        assert lock_violations((SRC / path).read_text(), CALLER_HOLDS_LOCK) == []

    def test_a_caller_held_lock_covers_the_whole_method(self):
        source = """
            import threading

            class Svc:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def incr(self):
                    with self._lock:
                        self._bump()

                def _bump(self):
                    self._count += 1

                def read(self):
                    with self._lock:
                        return self._count
        """
        source = textwrap.dedent(source)
        assert lock_violations(source) == [
            "Svc._bump line 14: '_count' written outside its lock"
        ]
        assert lock_violations(source, frozenset({"Svc._bump"})) == []

    def test_unlocked_read_of_a_guarded_counter_is_flagged(self):
        source = """
            import threading

            class Svc:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def incr(self):
                    with self._lock:
                        self._count += 1

                def read(self):
                    return self._count
        """
        assert lock_violations(textwrap.dedent(source)) == [
            "Svc.read line 14: '_count' read outside its lock"
        ]

    def test_locked_access_init_writes_and_config_reads_pass(self):
        source = """
            import threading

            class Svc:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0
                    self.capacity = 8  # read under the lock, never rewritten

                def incr(self):
                    with self._lock:
                        if self._count < self.capacity:
                            self._count += 1

                def read(self):
                    with self._lock:
                        return self._count

                def snapshot(self):
                    return self.capacity
        """
        assert lock_violations(textwrap.dedent(source)) == []

    def test_mutating_call_counts_as_a_write(self):
        source = """
            import threading

            class Svc:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def locked_add(self, x):
                    with self._lock:
                        self._items.append(x)

                def bare_add(self, x):
                    self._items.append(x)
        """
        assert lock_violations(textwrap.dedent(source)) == [
            "Svc.bare_add line 14: '_items' written outside its lock"
        ]


# ---------------------------------------------------------------------- #
# observability names
# ---------------------------------------------------------------------- #
def _name_constants(prefix: str, registry: str) -> set[str]:
    return {
        value for key, value in vars(names).items()
        if key.startswith(prefix) and key != registry
    }


class TestObservabilityNames:
    @pytest.mark.parametrize("name", sorted(names.SPAN_NAMES))
    def test_declared_span_name_is_recorded_by_both_entry_points(self, name):
        trace = Tracer("service", seed=0).start()
        with trace.span(name):
            pass
        trace.record_span(name, 0.0, 1.0)
        assert [span.name for span in trace.spans] == [name, name]

    @pytest.mark.parametrize("name", ["Parse", "parse ", "cache-lookup"])
    def test_near_miss_span_name_is_rejected_by_both_entry_points(self, name):
        trace = Tracer("service", seed=0).start()
        with pytest.raises(ValueError):
            trace.span(name)
        with pytest.raises(ValueError):
            trace.record_span(name, 0.0, 1.0)
        assert trace.spans == []

    def test_every_name_constant_is_registered(self):
        assert _name_constants("SPAN_", "SPAN_NAMES") == names.SPAN_NAMES
        assert _name_constants("METRIC_", "METRIC_NAMES") == names.METRIC_NAMES

    @pytest.mark.parametrize("family", sorted(names.METRICS))
    def test_declared_family_renders_under_prometheus_naming(self, family):
        kind, help_text = names.METRICS[family]
        assert re.fullmatch(r"repro_[a-z0-9_]+", family)
        # Prometheus convention: counters, and only counters, end in _total.
        assert family.endswith("_total") == (kind == "counter")
        exposition = _Exposition()
        exposition.sample(family, 2.0)
        exposition.sample(family, 3.0, {"shard": "0"})
        assert exposition._lines == [
            f"# HELP {family} {help_text}",
            f"# TYPE {family} {kind}",
            f"{family} 2",
            f'{family}{{shard="0"}} 3',
        ]

    def test_undeclared_family_cannot_be_rendered(self):
        exposition = _Exposition()
        with pytest.raises(KeyError):
            exposition.sample("repro_made_up_total", 1.0)
        with pytest.raises(KeyError):
            exposition.histogram("repro_made_up_ms", _histogram().as_dict())
        assert exposition._lines == []


# ---------------------------------------------------------------------- #
# error mapping
# ---------------------------------------------------------------------- #
#: exception -> (status, body) as documented in ``service/http/errors.py``.
ERROR_CASES = {
    "model-error": (ModelError("bad profile"), 400, {"error": "bad profile"}),
    "monotonicity-error": (
        MonotonicityError("not monotonic"), 400, {"error": "not monotonic"}
    ),
    "overloaded": (ServiceOverloadedError("queue full"), 503, {"error": "queue full"}),
    "timeout": (TimeoutError("slow"), 504, {"error": "scheduling request timed out"}),
    "invalid-schedule": (
        InvalidScheduleError("overlap"), 500, {"error": "InvalidScheduleError: overlap"}
    ),
    "scheduling-error": (
        SchedulingError("stuck"), 500, {"error": "SchedulingError: stuck"}
    ),
    # A plain ValueError is a bug, not malformed input: only ModelError is a 400.
    "value-error": (ValueError("oops"), 500, {"error": "ValueError: oops"}),
    "runtime-error": (RuntimeError("crash"), 500, {"error": "RuntimeError: crash"}),
}


class _RaisingApp(App):
    """An app whose one route raises whatever the test hands it."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc
        super().__init__()

    def routes(self) -> list[Route]:
        return [Route("POST", "/raise", self._raise)]

    def _raise(self, request: Request):
        raise self.exc


class TestErrorMapping:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_exception_answers_its_documented_status(self, case):
        exc, status, body = ERROR_CASES[case]
        for response in (
            map_exception(exc),
            _RaisingApp(exc).handle(Request("POST", "/raise", "/raise", "", {})),
        ):
            assert response.status == status
            assert response.content_type == "application/json"
            assert json.loads(response.body) == body
            assert not response.close

    def test_oversized_body_is_a_400_that_drops_the_connection(self):
        response = oversized_body_response(1024)
        assert response.status == 400
        assert json.loads(response.body) == {
            "error": "request body larger than 1024 bytes"
        }
        assert response.close


# ---------------------------------------------------------------------- #
# time coincidence
# ---------------------------------------------------------------------- #
class TestTimeCoincidence:
    def test_near_zero_the_tolerance_is_absolute(self):
        assert times_close(0.0, 5e-10)
        assert times_close(1.0, 1.0 + 5e-10)
        assert not times_close(0.0, 2e-9)
        assert not times_close(1.0, 1.0 + 1e-6)

    def test_far_from_zero_the_tolerance_scales(self):
        # One ulp at 1e12 is ~1.2e-4, far above an absolute 1e-9.
        big = 1e12
        assert times_close(big, math.nextafter(big, math.inf))
        assert times_close(big, big * (1 + 5e-10))
        assert not times_close(big, big * (1 + 2e-9))

    def test_a_shifted_timeline_still_coincides(self):
        # Stitched online timelines shift every entry by a float epoch
        # start; sums that are equal on paper differ in the last bit.
        assert times_close((0.1 + 0.2) + 0.3, 0.1 + (0.2 + 0.3))
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


# ---------------------------------------------------------------------- #
# determinism
# ---------------------------------------------------------------------- #
class TestDeterministicSchedules:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_two_runs_give_byte_identical_json(self, name):
        runs = [
            json.dumps(
                make_scheduler(name).schedule(make_workload("mixed", 12, 6, seed=4)).as_dict()
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
