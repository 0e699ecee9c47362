"""Package-level tests: exceptions hierarchy, Scheduler interface, public API exports."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    InfeasibleError,
    InvalidScheduleError,
    ModelError,
    MonotonicityError,
    ReproError,
    Scheduler,
    SchedulingError,
    SearchError,
    mixed_instance,
)


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ModelError,
            MonotonicityError,
            InvalidScheduleError,
            InfeasibleError,
            SchedulingError,
            SearchError,
        ):
            assert issubclass(exc, ReproError)

    def test_model_errors_are_value_errors(self):
        assert issubclass(ModelError, ValueError)
        assert issubclass(MonotonicityError, ModelError)

    def test_catching_base_class(self):
        from repro import MalleableTask

        with pytest.raises(ReproError):
            MalleableTask("t", [])


class TestSchedulerInterface:
    def test_callable_and_makespan_helpers(self, small_instance):
        from repro import SequentialLPTScheduler

        scheduler = SequentialLPTScheduler()
        schedule = scheduler(small_instance)
        assert schedule.makespan() == pytest.approx(scheduler.makespan(small_instance))

    def test_abstract_base_cannot_be_instantiated(self):
        with pytest.raises(TypeError):
            Scheduler()  # type: ignore[abstract]


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_setup_py_metadata_matches_the_package(self):
        root = Path(__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=root, capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out == ["repro", repro.__version__]

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing name {name!r}"

    def test_headline_guarantee_is_exposed(self):
        assert repro.theory.overall_guarantee() == pytest.approx(3**0.5)

    def test_docstring_quickstart_is_accurate(self):
        """The usage claimed in the package docstring actually works."""
        instance = mixed_instance(num_tasks=10, num_procs=8, seed=0)
        schedule = repro.MRTScheduler().schedule(instance)
        assert schedule.makespan() > 0
        assert schedule.is_complete()
