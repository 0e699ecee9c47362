"""Tests for the online-arrival subsystem (repro.online, repro.workloads.arrivals)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import InvalidScheduleError, ModelError
from repro.model.instance import Instance, profile_fingerprint
from repro.model.task import MalleableTask
from repro.online import EpochRescheduler, compute_replay_response, replay_from_payload
from repro.service.core import payload_fingerprint
from repro.sim.validate import simulate_and_check
from repro.workloads.arrivals import (
    ARRIVAL_PATTERNS,
    burst_trace,
    diurnal_trace,
    make_trace,
    pareto_trace,
    poisson_trace,
)
from repro.workloads.generators import make_workload


# --------------------------------------------------------------------------- #
# release times on the model
# --------------------------------------------------------------------------- #
class TestReleaseModel:
    def test_default_release_is_zero(self):
        task = MalleableTask("t", [4.0, 2.0])
        assert task.release_time == 0.0

    def test_invalid_release_rejected(self):
        with pytest.raises(ModelError):
            MalleableTask("t", [4.0], release_time=-1.0)
        with pytest.raises(ModelError):
            MalleableTask("t", [4.0], release_time=float("nan"))

    def test_released_copy_and_propagation(self):
        task = MalleableTask("t", [4.0, 2.0]).released(3.0)
        assert task.release_time == 3.0
        assert task.restricted(1).release_time == 3.0
        assert task.scaled(2.0).release_time == 6.0

    def test_release_round_trips_through_json(self):
        task = MalleableTask("t", [4.0, 2.0], release_time=1.25)
        clone = MalleableTask.from_dict(task.as_dict())
        assert clone == task and clone.release_time == 1.25

    def test_release_free_dict_is_byte_identical(self):
        task = MalleableTask("t", [4.0, 2.0])
        assert "release" not in task.as_dict()
        assert task.as_dict() == {"name": "t", "times": [4.0, 2.0]}

    def test_release_distinguishes_tasks(self):
        a = MalleableTask("t", [4.0])
        b = MalleableTask("t", [4.0], release_time=1.0)
        assert a != b and hash(a) != hash(b)

    def test_instance_release_accessors(self):
        base = Instance.from_profiles([[4.0, 2.0], [6.0, 3.5]])
        assert not base.has_releases
        trace = base.with_releases([0.0, 2.0])
        assert trace.has_releases
        assert trace.release_times.tolist() == [0.0, 2.0]
        with pytest.raises(ModelError):
            base.with_releases([1.0])


class TestReleaseFingerprint:
    def test_release_free_fingerprint_unchanged(self):
        """with_releases(zeros) must hash and serialise like the original."""
        base = Instance.from_profiles([[4.0, 2.0], [6.0, 3.5]])
        zero = base.with_releases([0.0, 0.0])
        assert zero.fingerprint() == base.fingerprint()
        assert zero.to_json() == base.to_json()
        assert base.fingerprint() == profile_fingerprint(2, base.times_matrix)

    def test_releases_change_fingerprint(self):
        base = Instance.from_profiles([[4.0, 2.0], [6.0, 3.5]])
        trace = base.with_releases([0.0, 1.0])
        other = base.with_releases([0.0, 2.0])
        assert trace.fingerprint() != base.fingerprint()
        assert trace.fingerprint() != other.fingerprint()

    def test_fingerprint_survives_json_round_trip(self):
        trace = poisson_trace("mixed", 8, 4, seed=7)
        clone = Instance.from_json(trace.to_json())
        assert clone.fingerprint() == trace.fingerprint()
        assert np.array_equal(clone.release_times, trace.release_times)

    def test_payload_fingerprint_covers_releases(self):
        trace = poisson_trace("uniform", 6, 4, seed=3)
        assert payload_fingerprint(trace.as_dict()) == trace.fingerprint()
        release_free = Instance(
            [t.released(0.0) for t in trace.tasks], trace.num_procs
        )
        assert payload_fingerprint(release_free.as_dict()) != trace.fingerprint()

    def test_payload_fingerprint_rejects_bad_release(self):
        payload = Instance.from_profiles([[4.0, 2.0]]).as_dict()
        payload["tasks"][0]["release"] = -1.0
        assert payload_fingerprint(payload) is None


# --------------------------------------------------------------------------- #
# schedule/sim release validation
# --------------------------------------------------------------------------- #
class TestReleaseValidation:
    def test_validate_catches_early_start(self):
        trace = Instance.from_profiles([[4.0, 2.0]]).with_releases([3.0])
        from repro.model.schedule import Schedule

        schedule = Schedule(trace)
        schedule.add(0, 0.0, 0, 1)
        schedule.validate()  # offline view: fine
        with pytest.raises(InvalidScheduleError, match="release"):
            schedule.validate(respect_release=True)
        with pytest.raises(InvalidScheduleError):
            simulate_and_check(schedule, respect_release=True)

    def test_validate_accepts_on_time_start(self):
        trace = Instance.from_profiles([[4.0, 2.0]]).with_releases([3.0])
        from repro.model.schedule import Schedule

        schedule = Schedule(trace)
        schedule.add(0, 3.0, 0, 1)
        schedule.validate(respect_release=True)
        simulate_and_check(schedule, respect_release=True)


# --------------------------------------------------------------------------- #
# arrival-trace generators
# --------------------------------------------------------------------------- #
class TestArrivalGenerators:
    @pytest.mark.parametrize("pattern", sorted(ARRIVAL_PATTERNS))
    def test_patterns_produce_valid_traces(self, pattern):
        trace = make_trace(pattern, "mixed", 20, 8, seed=11)
        releases = trace.release_times
        assert trace.num_tasks == 20 and trace.num_procs == 8
        assert releases.min() == 0.0 and np.all(releases >= 0.0)
        assert trace.has_releases

    @pytest.mark.parametrize("pattern", sorted(ARRIVAL_PATTERNS))
    def test_patterns_are_deterministic(self, pattern):
        a = make_trace(pattern, "uniform", 12, 6, seed=5)
        b = make_trace(pattern, "uniform", 12, 6, seed=5)
        assert a.fingerprint() == b.fingerprint()

    def test_poisson_rate_controls_span(self):
        slow = poisson_trace("uniform", 30, 8, seed=0, rate=0.1)
        fast = poisson_trace("uniform", 30, 8, seed=0, rate=10.0)
        assert slow.release_times.max() > fast.release_times.max()

    def test_burst_trace_clusters(self):
        trace = burst_trace("uniform", 40, 8, seed=1, bursts=2, jitter=0.001)
        releases = np.sort(trace.release_times)
        gaps = np.diff(releases)
        # one large inter-burst gap dominates the tiny intra-burst jitter
        assert gaps.max() > 10 * np.median(gaps[gaps > 0]) if np.any(gaps > 0) else True

    def test_diurnal_requires_sane_ratio(self):
        with pytest.raises(ModelError):
            diurnal_trace(peak_to_trough=0.5)

    def test_pareto_requires_finite_mean(self):
        with pytest.raises(ModelError):
            pareto_trace(alpha=1.0)
        with pytest.raises(ModelError):
            pareto_trace(alpha=0.5)

    def test_pareto_is_heavier_tailed_than_poisson(self):
        """The heavy tail shows as a larger max/median inter-arrival gap."""
        import numpy as np

        def tail_ratio(trace):
            gaps = np.diff(np.sort(trace.release_times))
            gaps = gaps[gaps > 0]
            return gaps.max() / np.median(gaps)

        ratios_pareto = [
            tail_ratio(pareto_trace("uniform", 60, 8, seed=s, alpha=1.2))
            for s in range(5)
        ]
        ratios_poisson = [
            tail_ratio(poisson_trace("uniform", 60, 8, seed=s)) for s in range(5)
        ]
        assert float(np.median(ratios_pareto)) > float(np.median(ratios_poisson))

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ModelError):
            make_trace("weekly", "mixed", 4, 2)


# --------------------------------------------------------------------------- #
# epoch rescheduling
# --------------------------------------------------------------------------- #
class TestEpochRescheduler:
    @pytest.mark.parametrize("pattern", sorted(ARRIVAL_PATTERNS))
    def test_replay_produces_validated_timeline(self, pattern):
        trace = make_trace(pattern, "mixed", 16, 8, seed=2)
        result = EpochRescheduler("mrt").replay(trace)
        sim = simulate_and_check(result.schedule, respect_release=True)
        assert result.schedule.is_complete()
        assert sim.makespan == pytest.approx(result.makespan, rel=1e-6)
        assert result.num_epochs >= 1
        # every task starts at or after its release
        for entry in result.schedule.entries:
            release = trace.tasks[entry.task_index].release_time
            assert entry.start >= release - 1e-9

    def test_offline_instance_is_single_epoch(self):
        instance = make_workload("uniform", 10, 6, seed=4)
        result = EpochRescheduler("mrt").replay(instance)
        assert result.num_epochs == 1
        assert result.epochs[0].start == 0.0

    def test_epochs_never_overlap(self):
        trace = poisson_trace("mixed", 20, 6, seed=9)
        result = EpochRescheduler("mrt").replay(trace)
        for prev, cur in zip(result.epochs, result.epochs[1:]):
            assert cur.start >= prev.end - 1e-9

    @pytest.mark.parametrize("pattern", sorted(ARRIVAL_PATTERNS))
    def test_every_task_scheduled_exactly_once(self, pattern):
        trace = make_trace(pattern, "mixed", 20, 8, seed=7)
        result = EpochRescheduler("mrt").replay(trace)
        indices = sorted(e.task_index for e in result.schedule.entries)
        assert indices == list(range(20))
        assert sum(e.num_tasks for e in result.epochs) == 20

    def test_batches_wait_for_the_previous_batch_to_drain(self):
        """A batch owns the whole machine until it drains, so short tasks
        that arrive while a long one runs start only after it ends — even
        though a processor sits idle all the while."""
        profiles = [[20.0, 20.0], [1.0, 1.0], [1.0, 1.0]]
        trace = Instance.from_profiles(profiles, require_monotonic=False).with_releases(
            [0.0, 1.0, 2.0]
        )
        result = EpochRescheduler("mrt").replay(trace)
        simulate_and_check(result.schedule, respect_release=True)
        long_end = result.schedule.entry_for(0).end
        for index in (1, 2):
            assert result.schedule.entry_for(index).start >= long_end - 1e-9
        assert result.num_epochs == 2 and result.epochs[1].num_tasks == 2

    def test_quantum_spaces_epochs(self):
        trace = poisson_trace("uniform", 20, 6, seed=6)
        quantum = float(trace.release_times.max())  # one giant batch window
        result = EpochRescheduler("mrt", quantum=quantum).replay(trace)
        event_driven = EpochRescheduler("mrt").replay(trace)
        assert result.num_epochs <= event_driven.num_epochs
        for prev, cur in zip(result.epochs, result.epochs[1:]):
            assert cur.start >= prev.start + quantum - 1e-9
        simulate_and_check(result.schedule, respect_release=True)

    def test_alternative_kernel(self):
        trace = poisson_trace("uniform", 12, 4, seed=8)
        result = EpochRescheduler("sequential").replay(trace)
        simulate_and_check(result.schedule, respect_release=True)
        assert result.algorithm == "sequential"

    def test_metrics_shape_and_sanity(self):
        trace = poisson_trace("mixed", 14, 6, seed=12)
        result = EpochRescheduler("mrt").replay(trace)
        metrics = result.metrics()
        assert metrics["num_tasks"] == 14
        assert metrics["max_flow"] >= metrics["mean_flow"] > 0
        assert metrics["max_stretch"] >= metrics["mean_stretch"] >= 1.0 - 1e-9
        assert 0.0 < metrics["utilization"] <= 1.0
        flows = result.flow_times()
        assert flows.shape == (14,) and np.all(flows > 0)

    def test_on_epoch_callback_streams(self):
        trace = poisson_trace("uniform", 10, 4, seed=1)
        seen = []
        result = EpochRescheduler("mrt").replay(trace, on_epoch=seen.append)
        assert [e.index for e in seen] == [e.index for e in result.epochs]

    def test_invalid_quantum_rejected(self):
        with pytest.raises(ModelError, match="non-negative"):
            EpochRescheduler("mrt", quantum=-1.0)

    @pytest.mark.parametrize("quantum", [math.inf, -math.inf, math.nan])
    def test_non_finite_quantum_rejected(self, quantum):
        with pytest.raises(ModelError, match="quantum must be finite"):
            EpochRescheduler("mrt", quantum=quantum)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ModelError):
            EpochRescheduler("nope")

    def test_quantum_boundary_arrival_emits_no_empty_epoch(self):
        """Regression: a last arrival exactly on a quantum boundary must not
        produce a zero-length (zero-task) final epoch — empty slots are
        skipped and the clock only ever moves forward."""
        profiles = [[0.25, 0.25], [0.25, 0.25], [0.25, 0.25], [0.25, 0.25]]
        base = Instance.from_profiles(profiles, require_monotonic=False)
        quantum = 0.1
        # Accumulated clock = 3 * 0.1 carries float drift; the last arrival
        # sits exactly on the drifted boundary AND on the exact product.
        drifted = 0.1 + 0.1 + 0.1
        for boundary in (drifted, 3 * 0.1, 0.3):
            trace = base.with_releases([0.0, 0.0, 0.0, boundary])
            result = EpochRescheduler("mrt", quantum=quantum).replay(trace)
            assert result.schedule.is_complete()
            assert all(e.num_tasks >= 1 for e in result.epochs)
            assert all(e.end > e.start for e in result.epochs)
            assert sum(e.num_tasks for e in result.epochs) == 4
            starts = [e.start for e in result.epochs]
            assert starts == sorted(starts)
            simulate_and_check(result.schedule, respect_release=True)


# --------------------------------------------------------------------------- #
# replay payload layer (service integration)
# --------------------------------------------------------------------------- #
class TestReplayPayload:
    def test_generate_spec(self):
        trace, rescheduler, validate = replay_from_payload(
            {
                "generate": {"pattern": "burst", "tasks": 8, "procs": 4, "seed": 1},
                "quantum": 2.0,
                "validate": True,
            }
        )
        assert trace.num_tasks == 8 and rescheduler.quantum == 2.0 and validate

    def test_explicit_trace(self):
        trace = poisson_trace("uniform", 6, 4, seed=0)
        parsed, rescheduler, validate = replay_from_payload(
            {"trace": trace.as_dict()}
        )
        assert parsed.fingerprint() == trace.fingerprint()
        assert rescheduler.quantum is None and not validate

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"trace": {}, "generate": {}},
            {"generate": {"pattern": "nope"}},
            {"generate": {}, "quantum": "soon"},
            {"generate": {}, "params": 3},
            {"generate": {}, "algorithm": 7},
            {"generate": {}, "kernel": 7},
            {"generate": {}, "kernel": "nope"},
            {"generate": {}, "quantum": "inf"},
            {"generate": {}, "quantum": "nan"},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(ModelError):
            replay_from_payload(payload)

    def test_unknown_kernel_error_lists_choices(self):
        with pytest.raises(ModelError) as excinfo:
            replay_from_payload({"generate": {}, "kernel": "availability"})
        assert str(excinfo.value) == (
            "unknown online kernel 'availability'; choose from ['barrier']"
        )

    def test_kernel_selection(self):
        _, rescheduler, _ = replay_from_payload(
            {"generate": {"tasks": 4, "procs": 2}, "kernel": "barrier"}
        )
        assert isinstance(rescheduler, EpochRescheduler)
        _, default, _ = replay_from_payload({"generate": {"tasks": 4, "procs": 2}})
        assert isinstance(default, EpochRescheduler)

    def test_compute_replay_response(self):
        trace, rescheduler, _ = replay_from_payload(
            {"generate": {"pattern": "poisson", "tasks": 6, "procs": 4, "seed": 0}}
        )
        response = compute_replay_response(trace, rescheduler, True)
        assert response["fingerprint"] == trace.fingerprint()
        assert response["validation"]["simulated_makespan"] == pytest.approx(
            response["result"]["makespan"], rel=1e-6
        )
        assert len(response["result"]["epochs"]) == response["result"]["num_epochs"]
        assert response["result"]["schedule"]["entries"]
