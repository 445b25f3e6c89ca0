"""Resilient executor unit contracts: policy, spec grammar, supervision.

End-to-end chaos scenarios (kill/hang/nan/shm loss against the real
solvers, with bit-identity assertions) live in ``test_chaos.py``; this
module pins the building blocks — :class:`RetryPolicy` validation, the
``REPRO_FAULTS`` grammar, deterministic draws, the degradation ladder,
and the supervised ``map`` loop's retry/deadline/quarantine behavior.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    DeadlineExceeded,
    WorkerCrashError,
)
from repro.runtime import (
    PersistentExecutor,
    ResilientExecutor,
    RetryPolicy,
    RuntimeConfig,
    SerialExecutor,
    TaskError,
    base_executor,
    degradation_ladder,
    faults,
    get_executor,
    policy_of,
    retry_backoff,
)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.task_timeout is None
        assert policy.on_failure == "raise"

    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(task_timeout=0.0)

    def test_rejects_unknown_failure_mode(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(on_failure="ignore")


class TestBackoff:
    def test_deterministic_doubling(self):
        assert retry_backoff(1, base=0.02, cap=1.0) == pytest.approx(0.02)
        assert retry_backoff(2, base=0.02, cap=1.0) == pytest.approx(0.04)
        assert retry_backoff(3, base=0.02, cap=1.0) == pytest.approx(0.08)

    def test_capped(self):
        assert retry_backoff(30, base=0.02, cap=1.0) == 1.0

    def test_rejects_zeroth_attempt(self):
        with pytest.raises(ConfigurationError):
            retry_backoff(0)


class TestDegradationLadder:
    def test_persistent_falls_straight_to_serial(self):
        # The serial rung runs inline, so a missed deadline there leaves
        # no zombie that could touch slots after their leases are
        # re-leased.
        assert degradation_ladder("persistent") == ("persistent", "serial")

    def test_serial_has_no_fallback(self):
        assert degradation_ladder("serial") == ("serial",)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            degradation_ladder("gpu")


class TestFaultSpecGrammar:
    def test_full_spec(self):
        plan = faults.parse_spec(
            "seed=7;kill:p=0.5,backend=persistent;nan:p=0.25,attempts=2"
        )
        assert plan.seed == 7
        assert [c.kind for c in plan.clauses] == ["kill", "nan"]
        assert plan.clauses[0].p == 0.5
        assert plan.clauses[0].backend == "persistent"
        assert plan.clauses[1].attempts == 2

    def test_unknown_backend_rejected(self):
        """A clause pinned to no real backend would never fire."""
        with pytest.raises(ConfigurationError, match="persistent"):
            faults.parse_spec("kill:p=1.0,backend=processes")

    def test_deleted_threads_backend_rejected(self):
        with pytest.raises(
            ConfigurationError, match="'serial', 'persistent'"
        ):
            faults.parse_spec("kill:p=1.0,backend=threads")

    def test_bare_kind_defaults(self):
        clause = faults.parse_spec("hang").clauses[0]
        assert clause.p == 1.0
        assert clause.attempts == 1
        assert clause.delay == pytest.approx(0.05)

    def test_empty_spec_is_falsy_plan(self):
        assert not faults.parse_spec("seed=3")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            faults.parse_spec("oom:p=1.0")

    def test_replica_kill_is_not_a_kind(self):
        # No code path would consult it, so the clause could never fire.
        with pytest.raises(ConfigurationError):
            faults.parse_spec("seed=1;replica_kill:p=1.0,attempts=1")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            faults.parse_spec("kill:rate=1.0")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError):
            faults.parse_spec("kill:p=often")

    def test_bad_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            faults.parse_spec("seed=entropy")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            faults.parse_spec("kill:p=1.5")

    def test_env_plan_roundtrip(self):
        plan = faults.env_plan({"REPRO_FAULTS": "seed=9;kill:p=1.0"})
        assert plan is not None and plan.seed == 9
        assert faults.env_plan({}) is None


class TestFaultFrames:
    def test_no_injection_without_frame(self):
        faults.install(faults.parse_spec("seed=1;kill:p=1.0"))
        try:
            faults.on_task_start()  # no frame -> no-op
            assert not faults.active()
        finally:
            faults.uninstall()

    def test_kill_fires_inside_frame(self):
        plan = faults.parse_spec("seed=1;kill:p=1.0")
        with faults.activate(plan, "t0", backend="serial"):
            assert faults.active()
            with pytest.raises(WorkerCrashError):
                faults.on_task_start()

    def test_draws_are_deterministic_per_key(self):
        plan = faults.parse_spec("seed=5;kill:p=0.5")
        outcomes = []
        for key in [f"t{i}" for i in range(16)] * 2:
            with faults.activate(plan, key, backend="serial"):
                try:
                    faults.on_task_start()
                    outcomes.append(False)
                except WorkerCrashError:
                    outcomes.append(True)
        assert outcomes[:16] == outcomes[16:]
        assert any(outcomes) and not all(outcomes)

    def test_attempt_gate_stops_retries(self):
        plan = faults.parse_spec("seed=1;kill:p=1.0,attempts=1")
        with faults.activate(plan, "t0", attempt=1, backend="serial"):
            faults.on_task_start()  # attempt >= clause budget: clean

    def test_backend_filter(self):
        plan = faults.parse_spec("seed=1;kill:p=1.0,backend=persistent")
        with faults.activate(plan, "t0", backend="serial"):
            faults.on_task_start()  # wrong backend: clean

    def test_nested_activation_keeps_outer_identity(self):
        plan = faults.parse_spec("seed=1;kill:p=1.0,match=outer")
        with faults.activate(plan, "outer", backend="serial"):
            with faults.activate(plan, "inner", backend="serial"):
                assert faults.current().key == "outer"

    def test_hang_on_serial_raises_deadline(self):
        plan = faults.parse_spec("seed=1;hang:p=1.0,delay=0.01")
        with faults.activate(plan, "t0", backend="serial"):
            with pytest.raises(DeadlineExceeded):
                faults.on_task_start()


class _FailFirst:
    """Raise ``exc`` on the first call per item, then compute ``x * 2``."""

    def __init__(self, exc: Exception) -> None:
        self.exc = exc
        self.seen: set = set()

    def __call__(self, x):
        if x not in self.seen:
            self.seen.add(x)
            raise self.exc
        return x * 2


def _sleepy(x):
    time.sleep(0.5)
    return x


def _times_ten(x):
    return x * 10


class TestSupervisedMap:
    def test_clean_map_passthrough(self):
        with ResilientExecutor(SerialExecutor()) as ex:
            # serial: nothing is pickled
            out = ex.map(lambda x: x + 1, [1, 2, 3])  # repro: noqa[PICK01]
            assert out == [2, 3, 4]
            assert ex.last_failures == []

    def test_retry_recovers_and_records_history(self):
        fn = _FailFirst(WorkerCrashError("boom"))
        with ResilientExecutor(
            SerialExecutor(), RetryPolicy(max_retries=1, backoff_base=0.0)
        ) as ex:
            assert ex.map(fn, [1, 2]) == [2, 4]
            causes = {f.cause for f in ex.last_failures}
        assert causes == {"WorkerCrashError"}
        assert len(fn.seen) == 2

    def test_budget_exhaustion_raises_original(self):
        with ResilientExecutor(
            SerialExecutor(), RetryPolicy(max_retries=0)
        ) as ex:
            with pytest.raises(WorkerCrashError):
                ex.map(_FailFirst(WorkerCrashError("boom")), [1])

    def test_numerical_failure_never_retried(self):
        fn = _FailFirst(ConvergenceError("stuck", sweeps=3, residual=0.1))
        with ResilientExecutor(
            SerialExecutor(), RetryPolicy(max_retries=3, backoff_base=0.0)
        ) as ex:
            with pytest.raises(ConvergenceError):
                ex.map(fn, [1])
            assert len(ex.last_failures) == 1  # one attempt, no retries

    def test_capture_mode_returns_task_error_with_history(self):
        fn = _FailFirst(ConvergenceError("stuck", sweeps=3, residual=0.1))
        with ResilientExecutor(SerialExecutor()) as ex:
            out = ex.map(fn, [1, 2], on_error="return")
        good = [o for o in out if not isinstance(o, TaskError)]
        bad = [o for o in out if isinstance(o, TaskError)]
        # _FailFirst keys on the item, so both items fail their first call.
        assert good == [] and len(bad) == 2
        assert all(isinstance(e.error, ConvergenceError) for e in bad)
        assert all(len(e.failures) == 1 for e in bad)

    def test_deadline_enforced_on_pool_rung(self):
        with ResilientExecutor(
            PersistentExecutor(2),
            RetryPolicy(max_retries=0, task_timeout=0.05),
        ) as ex:
            with pytest.raises(DeadlineExceeded):
                ex.map(_sleepy, [1])

    def test_ladder_retry_escapes_backend_bound_fault(self, chaos):
        """A kill pinned to the persistent backend cannot follow the task
        to the serial rung, so one retry recovers."""
        chaos("seed=2;kill:p=1.0,backend=persistent,attempts=99")
        with ResilientExecutor(
            PersistentExecutor(2), RetryPolicy(max_retries=1, backoff_base=0.0)
        ) as ex:
            assert ex.map(_times_ten, [1, 2]) == [10, 20]
            rungs = {f.cause for f in ex.last_failures}
        assert rungs == {"WorkerPoolBroken"}

    def test_nested_map_runs_inline_under_outer_frame(self):
        with ResilientExecutor(SerialExecutor()) as ex:

            def outer(i):
                inner = ex.map(lambda j: i * 10 + j, [0, 1])  # repro: noqa[PICK01]
                return sum(inner)

            assert ex.map(outer, [1, 2]) == [21, 41]  # repro: noqa[PICK01] serial


#: Twelve tasks under a p = 0.5 kill plan with no retries; prints the
#: indices of the tasks that failed.
_REPLAY = """
from repro.runtime import (
    ResilientExecutor, RetryPolicy, SerialExecutor, TaskError, faults,
)
faults.install(faults.parse_spec("seed=1;kill:p=0.5"))
with ResilientExecutor(SerialExecutor(), RetryPolicy(max_retries=0)) as ex:
    out = ex.map(abs, range(12), on_error="return")
print([i for i, r in enumerate(out) if isinstance(r, TaskError)])
"""


def test_fault_plan_replays_in_every_process():
    """A fault's draw keys on the map and the task, never on the process,
    so the same plan fails the same tasks in every run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        subprocess.run(
            [sys.executable, "-c", _REPLAY],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    failed = ast.literal_eval(runs[0])
    assert 0 < len(failed) < 12


class TestWiring:
    def test_policy_of_plain_executor_is_none(self):
        ex = SerialExecutor()
        assert policy_of(ex) is None
        assert base_executor(ex) is ex

    def test_get_executor_wraps_on_resilience_fields(self):
        cfg = RuntimeConfig(max_retries=1)
        ex = get_executor(cfg)
        try:
            assert isinstance(ex, ResilientExecutor)
            assert ex.policy.max_retries == 1
            assert isinstance(base_executor(ex), SerialExecutor)
        finally:
            ex.close()

    def test_get_executor_wraps_under_installed_plan(self, chaos):
        chaos("seed=1;nan:p=0.1")
        ex = get_executor(RuntimeConfig())
        try:
            assert isinstance(ex, ResilientExecutor)
        finally:
            ex.close()

    def test_runtime_config_on_failure_travels_to_policy(self):
        ex = get_executor(RuntimeConfig(on_failure="quarantine"))
        try:
            assert policy_of(ex).on_failure == "quarantine"
        finally:
            ex.close()

    def test_mirrors_scheduling_surface(self):
        inner = PersistentExecutor(3, min_shard=7)
        with ResilientExecutor(inner) as ex:
            assert ex.backend == "persistent"
            assert ex.workers == 3
            assert ex.min_shard == 7
