"""RL003: serialized shapes and fingerprint domain tags are pinned.

The content-addressed result cache keys off ``Instance.fingerprint()`` and
the canonical-JSON ``as_dict`` shapes; a key silently added to (or dropped
from) one of those dicts changes the bytes on the wire, cold-starts every
warm shard and desynchronises the differential conformance suite.  This
rule pins the exact key set each registered ``as_dict`` may emit, requires
any *new* ``as_dict`` to be registered here (a reviewed, deliberate act),
and pins the byte-literal domain tags of ``profile_fingerprint``.

Changing a serialized shape is legitimate — do it by updating
:data:`SCHEMAS` in the same commit, which makes the cache-compatibility
break visible in review instead of implicit in a model edit.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import rule
from ._common import dict_string_keys

__all__ = ["FINGERPRINT_TAGS", "SCHEMAS"]

#: ``path::Qualname`` -> the exact key set that ``as_dict`` may emit.
SCHEMAS: dict[str, frozenset[str]] = {
    "model/task.py::MalleableTask.as_dict": frozenset(
        {"name", "times", "release"}
    ),
    "model/instance.py::Instance.as_dict": frozenset(
        {"name", "num_procs", "tasks"}
    ),
    "model/schedule.py::Schedule.as_dict": frozenset(
        {"algorithm", "entries", "task_index", "start", "first_proc", "num_procs", "duration"}
    ),
    "online/epoch.py::EpochReport.as_dict": frozenset(
        {"index", "start", "end", "num_tasks", "makespan", "waiting",
         "compute_ms", "engine"}
    ),
    "obs/histogram.py::LatencyHistogram.as_dict": frozenset(
        {"scheme", "count", "sum_ms", "min_ms", "max_ms", "counts"}
    ),
    "obs/tracing.py::Span.as_dict": frozenset(
        {"span_id", "name", "start_ms", "duration_ms", "parent_id", "meta"}
    ),
    "obs/tracing.py::Trace.as_dict": frozenset(
        {"trace_id", "component", "started_at", "duration_ms", "spans"}
    ),
    "obs/timeseries.py::MetricSample.as_dict": frozenset(
        {"t", "gauges", "counters", "latency"}
    ),
    "obs/timeseries.py::WindowDelta.as_dict": frozenset(
        {"duration_s", "samples", "counters", "gauges", "latency"}
    ),
    "obs/slo.py::SLO.as_dict": frozenset(
        {"p99_ms", "availability", "fast_window_s", "slow_window_s",
         "fast_burn_threshold", "slow_burn_threshold"}
    ),
    "service/cache.py::CacheStats.as_dict": frozenset(
        {"hits", "misses", "evictions_lru", "evictions_ttl", "expired_purged", "hit_rate"}
    ),
    "lint/findings.py::Finding.as_dict": frozenset(
        {"rule", "path", "line", "col", "symbol", "message"}
    ),
}

#: ``path::funcname`` -> the byte-literal domain tags the digest must use.
FINGERPRINT_TAGS: dict[str, frozenset[bytes]] = {
    "model/instance.py::profile_fingerprint": frozenset(
        {b"repro-instance-v1", b"releases-v1"}
    ),
    "online/plancache.py::plan_key": frozenset({b"repro-plan-v1"}),
}


def _qualified_functions(tree: ast.Module) -> Iterator[tuple[str, ast.FunctionDef]]:
    """Yield ``(Qualname, node)`` for every function, with class prefixes."""

    def walk(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from walk(child, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def _bytes_constants(node: ast.AST) -> frozenset[bytes]:
    return frozenset(
        child.value
        for child in ast.walk(node)
        if isinstance(child, ast.Constant) and isinstance(child.value, bytes)
    )


@rule(
    "RL003",
    "fingerprint / serialized-shape stability",
    rationale=(
        "cache keys and wire bytes derive from as_dict key sets and the "
        "fingerprint domain tags; drift must be explicit, not accidental"
    ),
    version=1,
)
def check_schema_stability(module, project) -> Iterator[Finding]:
    seen: set[str] = set()
    for qualname, node in _qualified_functions(module.tree):
        key = f"{module.path}::{qualname}"
        simple_name = qualname.rsplit(".", 1)[-1]
        if simple_name == "as_dict":
            seen.add(key)
            emitted = dict_string_keys(node)
            pinned = SCHEMAS.get(key)
            if pinned is None:
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="RL003",
                    symbol=qualname,
                    message=(
                        f"'{qualname}' is not registered in the serialized-"
                        f"shape registry (repro.lint.rules.schema.SCHEMAS); "
                        f"register its key set {sorted(emitted)}"
                    ),
                )
            elif emitted != pinned:
                added = sorted(emitted - pinned)
                missing = sorted(pinned - emitted)
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="RL003",
                    symbol=qualname,
                    message=(
                        f"'{qualname}' drifted from its pinned key set: "
                        f"added {added}, missing {missing}; update SCHEMAS "
                        f"deliberately if the shape change is intended"
                    ),
                )
        if key in FINGERPRINT_TAGS:
            seen.add(key)
            tags = _bytes_constants(node)
            pinned_tags = FINGERPRINT_TAGS[key]
            if tags != pinned_tags:
                yield Finding(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="RL003",
                    symbol=qualname,
                    message=(
                        f"'{qualname}' domain tags {sorted(tags)} differ from "
                        f"the pinned {sorted(pinned_tags)}; changing them "
                        f"invalidates every existing fingerprint"
                    ),
                )
    # A registered entry whose function vanished is schema drift too: the
    # shape moved or was renamed without updating the registry.
    for key in set(SCHEMAS) | set(FINGERPRINT_TAGS):
        path, _, qualname = key.partition("::")
        if path == module.path and key not in seen:
            yield Finding(
                path=module.path,
                line=1,
                col=0,
                rule="RL003",
                symbol=qualname,
                message=(
                    f"registered serialized shape '{qualname}' no longer "
                    f"exists in this module; update SCHEMAS/FINGERPRINT_TAGS"
                ),
            )
