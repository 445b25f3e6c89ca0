"""Exception hierarchy contracts."""

import pickle

import pytest

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    DeadlineExceeded,
    FailureReport,
    NonFiniteError,
    PlanError,
    ReproError,
    ResourceError,
    ShapeError,
    TaskFailure,
    WorkerCrashError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ConfigurationError,
            ConvergenceError,
            DeadlineExceeded,
            NonFiniteError,
            PlanError,
            ResourceError,
            ShapeError,
            WorkerCrashError,
        ):
            assert issubclass(exc, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)

    def test_shape_error_is_value_error(self):
        assert issubclass(ShapeError, ValueError)

    def test_convergence_error_is_runtime_error(self):
        assert issubclass(ConvergenceError, RuntimeError)

    def test_resource_error_is_runtime_error(self):
        assert issubclass(ResourceError, RuntimeError)


class TestConvergenceError:
    def test_carries_sweeps_and_residual(self):
        err = ConvergenceError("nope", sweeps=7, residual=1.5e-3)
        assert err.sweeps == 7
        assert err.residual == pytest.approx(1.5e-3)

    def test_coerces_types(self):
        err = ConvergenceError("nope", sweeps=7.0, residual=1)
        assert isinstance(err.sweeps, int)
        assert isinstance(err.residual, float)

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            raise ConvergenceError("x", sweeps=1, residual=0.0)

    def test_batch_indices_default_none(self):
        assert ConvergenceError("x").batch_indices is None

    def test_batch_indices_coerced_to_int_tuple(self):
        err = ConvergenceError("x", batch_indices=[3.0, 7])
        assert err.batch_indices == (3, 7)
        assert all(isinstance(i, int) for i in err.batch_indices)


class TestInfrastructureFaults:
    def test_deadline_is_timeout_error(self):
        assert issubclass(DeadlineExceeded, TimeoutError)

    def test_nonfinite_is_arithmetic_error(self):
        assert issubclass(NonFiniteError, ArithmeticError)

    def test_nonfinite_carries_batch_indices(self):
        assert NonFiniteError("x", batch_indices=(2,)).batch_indices == (2,)

    @pytest.mark.parametrize(
        "exc",
        [
            ConvergenceError("boom", sweeps=3, residual=0.5, batch_indices=(1, 4)),
            NonFiniteError("nan", batch_indices=(0,)),
            WorkerCrashError("died"),
            DeadlineExceeded("late"),
        ],
    )
    def test_pickle_round_trip(self, exc):
        """Workers raise these across the pool boundary."""
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)
        assert clone.__dict__ == exc.__dict__


class TestFailureReport:
    def _report(self):
        report = FailureReport()
        report.add(index=3, stage="engine", cause="ConvergenceError",
                   message="m1", attempts=2, recovered=True)
        report.add(index=1, stage="engine", cause="ConvergenceError",
                   message="m2", attempts=3, recovered=False)
        report.add(index=-1, stage="executor", cause="WorkerCrashError",
                   message="m3", attempts=1, recovered=True)
        return report

    def test_empty_report_is_falsy(self):
        assert not FailureReport()
        assert len(FailureReport()) == 0

    def test_quarantined_sorted_and_excludes_executor_events(self):
        assert self._report().quarantined == (1, 3)

    def test_unrecovered_only_nan_slots(self):
        assert self._report().unrecovered == (1,)

    def test_for_index(self):
        assert [e.cause for e in self._report().for_index(-1)] == [
            "WorkerCrashError"
        ]

    def test_summary_mentions_every_event(self):
        text = self._report().summary()
        assert "3 failure event(s)" in text
        assert "QUARANTINED" in text
        assert "recovered" in text

    def test_extend_merges_entries(self):
        a, b = self._report(), self._report()
        a.extend(b)
        assert len(a) == 6

    def test_entries_are_frozen(self):
        entry = self._report().entries[0]
        assert isinstance(entry, TaskFailure)
        with pytest.raises(AttributeError):
            entry.index = 9

    def test_report_pickles(self):
        report = self._report()
        clone = pickle.loads(pickle.dumps(report))
        assert clone.entries == report.entries
