"""Unit tests for Instance (repro.model.instance)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, MalleableTask, ModelError
from repro.model.instance import parse_profiles
from repro.service import payload_fingerprint


def make_tasks(m: int = 4) -> list[MalleableTask]:
    return [
        MalleableTask.monotonic_envelope("a", np.linspace(8.0, 3.5, m)),
        MalleableTask.monotonic_envelope("b", np.linspace(4.0, 2.0, m)),
        MalleableTask.monotonic_envelope("c", np.linspace(2.0, 1.5, m)),
    ]


class TestConstruction:
    def test_basic(self):
        inst = Instance(make_tasks(), 4, name="x")
        assert inst.num_tasks == 3
        assert inst.num_procs == 4
        assert inst.name == "x"
        assert len(inst) == 3

    def test_iteration_and_indexing(self):
        inst = Instance(make_tasks(), 4)
        assert [t.name for t in inst] == ["a", "b", "c"]
        assert inst[1].name == "b"
        assert inst.task_index("c") == 2
        with pytest.raises(KeyError):
            inst.task_index("zzz")

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            Instance([], 4)

    def test_invalid_machine(self):
        with pytest.raises(ModelError):
            Instance(make_tasks(), 0)

    def test_task_profile_too_short_rejected(self):
        with pytest.raises(ModelError):
            Instance(make_tasks(2), 4)

    def test_profiles_truncated_to_machine(self):
        inst = Instance(make_tasks(8), 4)
        assert all(t.max_procs == 4 for t in inst.tasks)

    def test_non_task_rejected(self):
        with pytest.raises(ModelError):
            Instance(["not a task"], 4)  # type: ignore[list-item]

    def test_from_profiles(self):
        arr = [[4.0, 2.5], [2.0, 1.5]]
        inst = Instance.from_profiles(arr)
        assert inst.num_tasks == 2 and inst.num_procs == 2

    def test_from_profiles_requires_2d(self):
        with pytest.raises(ModelError):
            Instance.from_profiles([1.0, 2.0])


class TestAggregates:
    def test_total_sequential_work(self):
        inst = Instance(make_tasks(), 4)
        assert inst.total_sequential_work() == pytest.approx(8.0 + 4.0 + 2.0)

    def test_max_min_time(self):
        inst = Instance(make_tasks(), 4)
        assert inst.max_min_time() == pytest.approx(3.75)

    def test_max_sequential_time(self):
        inst = Instance(make_tasks(), 4)
        assert inst.max_sequential_time() == pytest.approx(8.0)

    def test_lower_and_upper_bound_relation(self, medium_instance):
        assert medium_instance.lower_bound() <= medium_instance.upper_bound() + 1e-9

    def test_lower_bound_formula(self):
        inst = Instance(make_tasks(), 4)
        expected = max(14.0 / 4, 3.75)
        assert inst.lower_bound() == pytest.approx(expected)


class TestCanonicalQuantities:
    def test_canonical_procs_vector(self):
        inst = Instance(make_tasks(), 4)
        gammas = inst.canonical_procs(4.0)
        assert gammas[1] == 1 and gammas[2] == 1
        assert gammas[0] is not None and gammas[0] >= 2

    def test_canonical_work_none_when_unreachable(self):
        inst = Instance(make_tasks(), 4)
        assert inst.canonical_work(0.5) is None

    def test_canonical_work_at_large_deadline_is_sequential(self):
        inst = Instance(make_tasks(), 4)
        big = inst.max_sequential_time()
        assert inst.canonical_work(big) == pytest.approx(inst.total_sequential_work())

    def test_canonical_work_monotone_in_deadline(self, medium_instance):
        """Smaller deadlines force larger allotments hence more work."""
        d_small = medium_instance.lower_bound()
        d_large = medium_instance.upper_bound()
        w_small = medium_instance.canonical_work(d_small)
        w_large = medium_instance.canonical_work(d_large)
        if w_small is not None:
            assert w_small >= w_large - 1e-9

    def test_mu_area_definition_simple(self):
        """Hand-check Definition 1 on a two-task instance."""
        tasks = [MalleableTask.rigid("x", 1.0, 2), MalleableTask.rigid("y", 0.5, 2)]
        inst = Instance(tasks, 2)
        # canonical allotment at d=1: both sequential; sorted times [1.0, 0.5];
        # first m=2 processors take both tasks fully: W_m = 1.5
        assert inst.mu_area(1.0) == pytest.approx(1.5)

    def test_mu_area_truncates_at_m(self):
        tasks = [MalleableTask.rigid(f"t{i}", 1.0, 2) for i in range(5)]
        inst = Instance(tasks, 2)
        # each task is sequential with time 1; the first 2 processors see area 2
        assert inst.mu_area(1.0) == pytest.approx(2.0)

    def test_mu_area_none_when_infeasible(self):
        inst = Instance(make_tasks(), 4)
        assert inst.mu_area(0.1) is None

    def test_mu_area_at_most_canonical_work(self, medium_instance):
        d = medium_instance.upper_bound()
        assert medium_instance.mu_area(d) <= medium_instance.canonical_work(d) + 1e-9

    def test_mu_area_at_most_m_times_deadline_when_feasible(self, medium_instance):
        """W_m cannot exceed the full m×d rectangle when Property 2 holds."""
        d = medium_instance.upper_bound()
        area = medium_instance.mu_area(d)
        assert area <= medium_instance.num_procs * d + 1e-9


class TestTransformations:
    def test_scaled(self):
        inst = Instance(make_tasks(), 4)
        scaled = inst.scaled(3.0)
        assert scaled.total_sequential_work() == pytest.approx(3 * 14.0)

    def test_subset(self):
        inst = Instance(make_tasks(), 4)
        sub = inst.subset([0, 2])
        assert sub.num_tasks == 2
        assert sub[1].name == "c"

    def test_with_machine(self):
        inst = Instance(make_tasks(8), 8)
        smaller = inst.with_machine(4)
        assert smaller.num_procs == 4

    def test_json_round_trip(self, small_instance):
        clone = Instance.from_json(small_instance.to_json())
        assert clone.num_tasks == small_instance.num_tasks
        assert clone.num_procs == small_instance.num_procs
        for a, b in zip(clone.tasks, small_instance.tasks):
            assert np.allclose(a.times, b.times)


class TestSerializationBitExact:
    """Property tests: JSON round-trips are bit-exact on float profiles.

    Python's ``json`` serialises floats with their shortest round-trip
    ``repr``, so ``from_json(to_json(inst))`` must restore the *identical*
    ``float64`` bits — which is what makes :meth:`Instance.fingerprint`
    stable across the service wire format.
    """

    # Magnitudes follow the existing property tests: the monotonic-envelope
    # repair itself (not serialisation) uses an absolute EPS and degrades on
    # 1e12-scale profiles; extreme magnitudes are pinned separately below
    # with trivially monotonic rigid profiles.
    profiles = st.lists(
        st.lists(
            st.floats(
                min_value=0.01,
                max_value=100.0,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=6,
        ),
        min_size=1,
        max_size=5,
    )

    @staticmethod
    def _instance_from(raw: list[list[float]]) -> Instance:
        width = min(len(row) for row in raw)
        tasks = [
            MalleableTask.monotonic_envelope(f"T{i}", row[:width])
            for i, row in enumerate(raw)
        ]
        return Instance(tasks, width)

    @given(profiles)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bits_and_fingerprint(self, raw):
        inst = self._instance_from(raw)
        clone = Instance.from_json(inst.to_json())
        assert clone.num_procs == inst.num_procs
        for a, b in zip(clone.tasks, inst.tasks):
            assert a.times.tobytes() == b.times.tobytes()  # bit-exact
        assert clone.times_matrix.tobytes() == inst.times_matrix.tobytes()
        assert clone.fingerprint() == inst.fingerprint()
        # as_dict/from_dict is the same path without the JSON text stage.
        assert Instance.from_dict(inst.as_dict()).fingerprint() == inst.fingerprint()
        # Canonical JSON: equal content serialises to equal bytes.
        assert clone.to_json() == inst.to_json()

    @given(profiles)
    @settings(max_examples=30, deadline=None)
    def test_payload_fingerprint_agrees(self, raw):
        from repro.service import payload_fingerprint

        inst = self._instance_from(raw)
        assert payload_fingerprint(inst.as_dict()) == inst.fingerprint()

    @given(
        st.lists(
            st.floats(
                min_value=1e-12,
                max_value=1e15,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_extreme_magnitudes_round_trip(self, durations):
        """Rigid profiles (constant time, trivially monotonic) at any scale."""
        tasks = [
            MalleableTask.rigid(f"T{i}", duration, 3)
            for i, duration in enumerate(durations)
        ]
        inst = Instance(tasks, 3)
        clone = Instance.from_json(inst.to_json())
        assert clone.times_matrix.tobytes() == inst.times_matrix.tobytes()
        assert clone.fingerprint() == inst.fingerprint()


# ---------------------------------------------------------------------- #
# bulk ingest against the per-task path
# ---------------------------------------------------------------------- #
#: Ways a payload can be shaped; only "valid" must take the bulk path.
INGEST_KINDS = (
    "valid", "ragged", "bad-time", "release", "string-times", "missing-name",
    "missing-times", "scalar-times", "num-procs", "no-tasks",
)
BAD_TIMES = (float("nan"), float("inf"), float("-inf"), 0.0, -1.0, -0.0)
RELEASES = (2.5, 0, 0.0, -0.0, -1.0, float("nan"), float("inf"), "x", "1.5", None, True, [1.0])


def per_task(payload: dict) -> Instance:
    """The per-task construction the bulk parser must reproduce."""
    tasks = [MalleableTask.from_dict(t) for t in payload["tasks"]]
    return Instance(tasks, payload["num_procs"], name=payload.get("name", "instance"))


def built(make, payload):
    """The instance ``make`` builds, or the type and text of its error."""
    try:
        return make(payload)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def ingest_payloads(draw, kind):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    width = m + draw(st.integers(min_value=0, max_value=2))  # rows past num_procs
    time = st.floats(min_value=0.01, max_value=100.0)
    tasks = []
    for i in range(n):
        row = draw(st.lists(time, min_size=width, max_size=width))
        if draw(st.booleans()):
            row = MalleableTask.monotonic_envelope("x", row).times.tolist()
        task = {"name": f"T{i}", "times": row}
        if draw(st.booleans()):
            task["release"] = draw(st.sampled_from([0.0, 1.0, 3.25, 7]))
        tasks.append(task)
    payload = {"num_procs": m, "tasks": tasks}
    if draw(st.booleans()):
        payload["name"] = draw(st.sampled_from(["trace", 7]))
    victim = tasks[draw(st.integers(min_value=0, max_value=n - 1))]
    column = draw(st.integers(min_value=0, max_value=width - 1))
    if kind == "ragged":
        row = victim["times"]
        victim["times"] = draw(st.sampled_from([row[:-1], row + [row[-1]]]))
    elif kind == "bad-time":
        victim["times"][column] = draw(st.sampled_from(BAD_TIMES))
    elif kind == "release":
        victim["release"] = draw(st.sampled_from(RELEASES))
    elif kind == "string-times":
        victim["times"] = [repr(t) for t in victim["times"]]
    elif kind == "missing-name":
        del victim["name"]
    elif kind == "missing-times":
        del victim["times"]
    elif kind == "scalar-times":
        victim["times"] = victim["times"][0]
    elif kind == "num-procs":
        payload["num_procs"] = draw(
            st.sampled_from([0, -1, width + 1, float(m), str(m), True, None])
        )
    elif kind == "no-tasks":
        payload["tasks"] = []
    return payload


def test_from_dict_takes_a_one_shot_task_iterator():
    # JSON never yields one, but the per-task path has always taken any
    # iterable of tasks; the bulk pass must not half-consume it.
    tasks = [{"name": "a", "times": [2.0, 1.0]}, {"name": "b", "times": [3.0, 2.0]}]
    instance = Instance.from_dict({"num_procs": 2, "tasks": iter(tasks)})
    assert instance.to_json() == per_task({"num_procs": 2, "tasks": tasks}).to_json()


class TestBulkIngest:
    """``Instance.from_dict`` (bulk parser first) against the per-task path.

    Every payload must build equal tasks on both paths or raise the same
    exception with the same message, and a digest from
    ``payload_fingerprint`` must be the built instance's fingerprint.
    """

    @pytest.mark.parametrize("kind", INGEST_KINDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bulk_path_builds_what_the_per_task_path_builds(self, kind, data):
        payload = data.draw(ingest_payloads(kind))
        reference = built(per_task, payload)
        instance = built(Instance.from_dict, payload)
        digest = payload_fingerprint(payload)
        if kind == "valid":
            assert parse_profiles(payload) is not None
        if isinstance(reference, tuple):
            assert instance == reference
            assert digest is None
            return
        assert instance.num_procs == reference.num_procs
        assert instance.name == reference.name
        for got, want in zip(instance.tasks, reference.tasks, strict=True):
            assert got._name == want._name
            assert got._monotonic is want._monotonic
            assert repr(got._release) == repr(want._release)
            for a, b in ((got._times, want._times), (got._works, want._works)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
                assert not a.flags.writeable
        assert instance.to_json() == reference.to_json()
        assert instance.fingerprint() == reference.fingerprint()
        assert digest is None or digest == reference.fingerprint()
