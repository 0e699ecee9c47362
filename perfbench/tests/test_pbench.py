"""Tests for the benchmark's own helpers (no server is started here).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from pbench import inputs, proctree  # noqa: E402
from pbench.checks import guarantee_factor, over_guarantee, scrub  # noqa: E402
from pbench.layers import CoreProbe, core_metrics  # noqa: E402
from pbench.spans import SpanLog  # noqa: E402
from pbench.stats import (  # noqa: E402
    covered_length,
    cycle_means,
    median,
    min_samples,
    percentile,
    self_time,
)
from pbench.workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------- #
# percentile rule
# ---------------------------------------------------------------------- #
def test_min_samples_leaves_ten_beyond_the_percentile():
    assert min_samples(99.0) == 1000
    assert min_samples(95.0) == 200
    assert min_samples(90.0) == 100
    assert min_samples(99.9) == 10000


def test_p99_refused_below_1000_samples():
    with pytest.raises(ValueError, match="p99 needs at least 1000"):
        percentile(range(999), 99.0)
    assert percentile(range(1000), 99.0) == pytest.approx(989.01)


def test_median_needs_one_sample_and_interpolates():
    assert median([3.0]) == 3.0
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_cycle_means_average_whole_cycles_only():
    # Two whole cycles of four; the trailing partial cycle is dropped.
    values = [1.0, 2.0, 3.0, 10.0, 5.0, 6.0, 7.0, 14.0, 100.0]
    assert cycle_means(values, 4) == [4.0, 8.0]
    assert cycle_means(values, 1) == values
    assert cycle_means(values[:3], 4) == []


# ---------------------------------------------------------------------- #
# span self-time arithmetic
# ---------------------------------------------------------------------- #
def test_self_time_counts_overlapping_children_once():
    # Children cover [1, 6] and [8, 10] of the parent [0, 10].
    children = [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]
    assert self_time(0.0, 10.0, children) == pytest.approx(3.0)


def test_self_time_edge_cases():
    assert self_time(0.0, 5.0, []) == 5.0
    assert self_time(0.0, 5.0, [(0.0, 5.0), (1.0, 2.0)]) == 0.0
    assert self_time(2.0, 5.0, [(-1.0, 1.0), (6.0, 7.0)]) == 3.0
    assert covered_length([(0.0, 1.0), (1.0, 2.0), (5.0, 4.0)]) == 2.0


def test_span_log_links_parents_and_requests(tmp_path):
    log = SpanLog()
    log.request = 7
    outer = log.open("outer")
    inner = log.open("inner")
    log.close(inner)
    log.close(outer)
    assert log.spans[inner].parent == outer
    assert log.spans[outer].parent == -1
    assert {span.request for span in log.spans} == {7}
    log.write(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 2


# ---------------------------------------------------------------------- #
# /proc process tree
# ---------------------------------------------------------------------- #
def _fake_proc(root: Path, pid: int, ppid: int, utime: int, stime: int,
               hwm_kb: int, state: str = "S", comm: str = "python3",
               argv: tuple[str, ...] = ("python3",)) -> None:
    entry = root / str(pid)
    entry.mkdir()
    # Fields 3.. of /proc/<pid>/stat: state ppid pgrp session tty tpgid
    # flags minflt cminflt majflt cmajflt utime stime ...
    rest = [state, str(ppid)] + ["0"] * 9 + [str(utime), str(stime)] + ["0"] * 6 + ["4242"]
    (entry / "stat").write_text(f"{pid} ({comm}) {' '.join(rest)}\n")
    (entry / "status").write_text(f"Name:\t{comm}\nVmHWM:\t{hwm_kb} kB\nVmRSS:\t1 kB\n")
    (entry / "cmdline").write_bytes(b"\0".join(a.encode() for a in argv) + b"\0")


def test_tree_cpu_and_rss_sum_over_descendants(tmp_path):
    serve = ("python3", "-m", "repro", "serve", "--shards", "2")
    _fake_proc(tmp_path, 100, 1, 50, 10, 40_960, argv=serve)
    _fake_proc(tmp_path, 101, 100, 200, 30, 20_480, comm="python (shard) 1")
    _fake_proc(tmp_path, 102, 100, 100, 20, 10_240)
    _fake_proc(tmp_path, 103, 101, 5, 5, 1_024)  # grandchild
    _fake_proc(tmp_path, 104, 100, 999, 999, 99_999, state="Z")  # zombie
    _fake_proc(tmp_path, 200, 1, 7, 7, 7_000)  # unrelated
    members = proctree.tree(100, tmp_path)
    assert members == [100, 101, 102, 103]
    ticks = (50 + 10) + (200 + 30) + (100 + 20) + (5 + 5)
    assert proctree.cpu_seconds(members, tmp_path) == pytest.approx(ticks / proctree.CLOCK_TICKS)
    assert proctree.peak_rss_mb(members, tmp_path) == pytest.approx(
        (40_960 + 20_480 + 10_240 + 1_024) / 1024
    )
    # A member that exited counts zero rather than failing the sum.
    assert proctree.cpu_seconds([100, 999], tmp_path) == pytest.approx(60 / proctree.CLOCK_TICKS)
    assert proctree.stray_servers(tmp_path) == [100]
    assert proctree.stray_servers(tmp_path, ignore=frozenset({100})) == []
    assert not proctree.alive(104, tmp_path)


def test_is_repro_serve_matches_only_the_serve_command():
    assert proctree.is_repro_serve(["python", "-m", "repro", "serve", "--port", "0"])
    assert not proctree.is_repro_serve(["python", "-m", "repro", "replay"])
    assert not proctree.is_repro_serve(["python", "perfbench/run.py"])


def test_reference_pool_leaves_no_process_behind():
    # A spawn pool would also start multiprocessing's resource tracker,
    # which outlives the pool and the run.
    own = os.getpid()
    before = set(proctree.tree(own))
    workload = WORKLOADS["schedule-cold"](seed=3, seconds=0.01)
    workload.precompute(set(range(16)), workers=2)
    assert sorted(workload._expected) == list(range(16))
    assert set(proctree.tree(own)) <= before


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def test_cold_instances_reproduce_from_the_seed():
    first = [inputs.cold_instance(3, "timed", i).as_dict() for i in range(8)]
    again = [inputs.cold_instance(3, "timed", i).as_dict() for i in range(8)]
    assert first == again
    assert first != [inputs.cold_instance(4, "timed", i).as_dict() for i in range(8)]
    # Every fourth request is the 64-processor shelf-overflow instance.
    assert [doc["num_procs"] for doc in first] == [16, 16, 16, 64] * 2


def test_streams_are_disjoint_and_distinct():
    timed = {inputs.cold_instance(1, "timed", i).fingerprint() for i in range(12)}
    warmup = {inputs.cold_instance(1, "warmup", i).fingerprint() for i in range(4)}
    assert len(timed) == 12
    assert not timed & warmup


def test_zipf_sequence_reproduces_and_is_skewed():
    seq = inputs.zipf_sequence(5, 4000, 96)
    assert seq == inputs.zipf_sequence(5, 4000, 96)
    assert seq != inputs.zipf_sequence(6, 4000, 96)
    assert all(0 <= member < 96 for member in seq)
    counts = sorted((seq.count(m) for m in set(seq)), reverse=True)
    assert counts[0] > 10 * (4000 / 96)  # the head is far above uniform


def test_pool_and_traces_reproduce_from_the_seed():
    assert inputs.pool_instance(2, 5).as_dict() == inputs.pool_instance(2, 5).as_dict()
    trace = inputs.replay_trace(2, "timed", 0)
    assert trace.as_dict() == inputs.replay_trace(2, "timed", 0).as_dict()
    assert (trace.num_tasks, trace.num_procs) == (64, 16)
    assert max(trace.release_times) > 0
    body, payload = inputs.replay_body(trace)
    assert b'"kernel": "barrier"' in body and payload["num_procs"] == 16


# ---------------------------------------------------------------------- #
# replay scrub
# ---------------------------------------------------------------------- #
def test_scrub_zeroes_wall_clock_fields_only():
    doc = {
        "elapsed_ms": 12.5,
        "fingerprint": "abc",
        "result": {
            "compute_ms": 9.0,
            "makespan": 4.0,
            "epochs": [{"index": 0, "compute_ms": 3.0, "makespan": 2.0}],
        },
    }
    clean = scrub(doc)
    assert "elapsed_ms" not in clean
    assert clean["result"]["compute_ms"] == 0.0
    assert clean["result"]["epochs"][0] == {"index": 0, "compute_ms": 0.0, "makespan": 2.0}
    assert clean["result"]["makespan"] == 4.0 and clean["fingerprint"] == "abc"
    assert doc["elapsed_ms"] == 12.5 and doc["result"]["epochs"][0]["compute_ms"] == 3.0


def test_guarantee_check_allows_the_search_tolerance_and_reports_the_ratio():
    m = 16
    factor = 2.0 - 2.0 / (m + 1)
    assert guarantee_factor(m) > factor
    assert over_guarantee(factor * 1.0005 * 10.0, 10.0, m) is None
    message = over_guarantee(factor * 1.01 * 10.0, 10.0, m)
    assert message is not None and f"{factor * 1.01:.6f}" in message


# ---------------------------------------------------------------------- #
# in-process core probe
# ---------------------------------------------------------------------- #
def test_core_probe_counts_guesses_and_restores_the_core():
    import repro.core.mrt as mrt
    from repro.core.mrt import MRTScheduler

    originals = (mrt.canonical_list_schedule, mrt.MRTDual.run, mrt.MRTScheduler.schedule)
    instance = inputs.cold_instance(0, "timed", 0)
    reference = MRTScheduler().schedule(instance).as_dict()
    log = SpanLog()
    with CoreProbe(log) as probe:
        scheduler = MRTScheduler()
        probed = scheduler.schedule(instance).as_dict()
    assert probed == reference
    assert (mrt.canonical_list_schedule, mrt.MRTDual.run, mrt.MRTScheduler.schedule) == originals
    assert probe.branches == [scheduler.last_result.branch]
    metrics = core_metrics(log, probe.branches)
    assert metrics["core.guesses_per_req"] == len(scheduler.last_result.search.trace)
    assert metrics[f"core.branch.{scheduler.last_result.branch}"] == 1.0
    assert metrics["core.schedule_ms"] >= metrics["core.canonical_list_ms"]
