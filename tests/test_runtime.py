"""Parallel execution runtime: executors, scheduling, shm, bit-identity.

The headline contract (ISSUE PR 2): ``serial``, ``threads``, and
``processes`` backends must produce byte-identical factors AND identical
simulated-GPU accounting on a ragged batch. Everything the profiler
records is computed host-side from batch shapes, so worker count and
shard boundaries must be invisible in every observable.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import Profiler, WCycleEstimator, WCycleSVD
from repro.errors import ConfigurationError
from repro.runtime import (
    BACKENDS,
    ProcessExecutor,
    RuntimeConfig,
    SerialExecutor,
    ThreadExecutor,
    base_executor,
    evd_stack_cost,
    export_array,
    get_executor,
    import_array,
    release,
    shard_count,
    split_shards,
    svd_stack_cost,
    wcycle_matrix_cost,
)
from repro.runtime.executor import _submission_order


class TestRuntimeConfig:
    def test_defaults(self):
        cfg = RuntimeConfig()
        assert cfg.backend == "serial"
        assert cfg.workers == 1
        assert cfg.min_shard == 4

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(backend="cuda")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(backend="threads", workers=0)

    def test_rejects_nonpositive_min_shard(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(min_shard=0)

    def test_all_backends_resolvable(self):
        for backend in BACKENDS:
            ex = get_executor(RuntimeConfig(backend=backend, workers=1))
            assert ex.backend == backend
            ex.close()


class TestSubmissionOrder:
    def test_no_costs_keeps_index_order(self):
        assert _submission_order(4, None) == [0, 1, 2, 3]

    def test_descending_cost(self):
        assert _submission_order(4, [1.0, 8.0, 2.0, 4.0]) == [1, 3, 2, 0]

    def test_stable_tie_break_on_index(self):
        assert _submission_order(4, [5.0, 9.0, 5.0, 5.0]) == [1, 0, 2, 3]

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            _submission_order(3, [1.0])


class TestShardPlanning:
    def test_capped_by_workers(self):
        assert shard_count(100, 4, min_shard=4) == 4

    def test_capped_by_min_shard(self):
        # 10 matrices / min_shard 4 -> at most 2 shards, even with 8 workers.
        assert shard_count(10, 8, min_shard=4) == 2

    def test_tiny_bucket_single_shard(self):
        assert shard_count(3, 8, min_shard=4) == 1

    def test_invalid_args_raise(self):
        with pytest.raises(ConfigurationError):
            shard_count(0, 2)
        with pytest.raises(ConfigurationError):
            shard_count(5, 0)

    def test_split_covers_in_order(self):
        chunks = split_shards(range(10), 3)
        assert [len(c) for c in chunks] == [4, 3, 3]  # array_split convention
        assert [i for c in chunks for i in c] == list(range(10))

    def test_split_contiguous(self):
        for chunk in split_shards(range(23), 5):
            assert list(chunk) == list(range(chunk[0], chunk[0] + len(chunk)))

    def test_split_never_empty(self):
        chunks = split_shards(range(2), 5)
        assert len(chunks) == 2
        assert all(chunks)

    def test_split_rejects_bad_shards(self):
        with pytest.raises(ConfigurationError):
            split_shards(range(4), 0)


class TestSharedMemory:
    def test_round_trip(self, rng):
        arr = rng.standard_normal((5, 12, 8))
        seg, ref = export_array(arr)
        try:
            other, view = import_array(ref)
            try:
                assert view.dtype == arr.dtype
                assert np.array_equal(view, arr)
            finally:
                release(other)
        finally:
            release(seg, unlink=True)

    def test_transfer_ownership_returns_no_segment(self, rng):
        arr = rng.standard_normal((3, 4))
        seg, ref = export_array(arr, transfer_ownership=True)
        assert seg is None
        # The receiver adopts the segment: attach, verify, unlink.
        adopted, view = import_array(ref)
        try:
            assert np.array_equal(view, arr)
        finally:
            release(adopted, unlink=True)

    def test_release_is_idempotent(self, rng):
        # Straight-line by design: the double release *is* the behavior
        # under test, so there is no exception window to protect. The
        # sanitizer (when on) deliberately rejects double releases, so the
        # un-sanitized contract is tested with auditing paused.
        from repro.runtime import sanitize

        with sanitize.paused():
            seg, _ = export_array(rng.standard_normal((2, 2)))  # repro: noqa[SHM01]
            release(seg, unlink=True)
            release(seg, unlink=True)
            release(None)


class TestExecutors:
    def test_get_executor_default_is_serial(self):
        # base_executor: under an env-armed fault plan (the chaos-smoke CI
        # job), get_executor wraps everything in a ResilientExecutor. An
        # env backend override (the persistent tier-1 CI rerun) swaps the
        # default backend; honor it here rather than monkeypatching it
        # away, so the test validates whichever default CI selected.
        expected = os.environ.get("REPRO_RUNTIME_BACKEND", "").strip() or "serial"
        ex = get_executor(None)
        try:
            assert base_executor(ex).backend == expected
            if expected == "serial":
                assert isinstance(base_executor(ex), SerialExecutor)
        finally:
            if expected != "serial":
                ex.close()

    def test_env_override_rejects_unknown_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME_BACKEND", "persistant")
        with pytest.raises(ConfigurationError, match="REPRO_RUNTIME_BACKEND"):
            get_executor(None)

    def test_get_executor_passthrough(self):
        ex = ThreadExecutor(2)
        assert get_executor(ex) is ex
        ex.close()

    def test_get_executor_from_name(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 4)
        ex = get_executor("threads", workers=3)
        inner = base_executor(ex)
        assert isinstance(inner, ThreadExecutor)
        assert inner.workers == 3
        ex.close()

    def test_get_executor_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            get_executor(42)

    def test_map_empty(self):
        assert SerialExecutor().map(lambda x: x, []) == []

    def test_map_preserves_item_order_despite_costs(self):
        with ThreadExecutor(4) as ex:
            out = ex.map(lambda x: x * x, [1, 2, 3, 4], costs=[1, 9, 2, 8])
        assert out == [1, 4, 9, 16]

    def test_nested_map_runs_inline(self):
        """A task calling map() again must not resubmit to the pool."""
        with ThreadExecutor(2) as ex:

            def outer(i):
                assert ex.active
                return sum(ex.map(lambda j: i * 10 + j, [0, 1]))

            assert not ex.active
            assert ex.map(outer, [1, 2]) == [21, 41]
            assert not ex.active

    def test_single_item_map_does_not_claim_pool(self):
        """One-item maps run inline but leave the pool free for deeper
        fan-out — `active` stays False inside the task."""
        with ThreadExecutor(2) as ex:
            flags = ex.map(lambda _: ex.active, ["only"])
        assert flags == [False]

    def test_process_map(self):
        with ProcessExecutor(2) as ex:
            assert ex.map(abs, [-1, -2, 3]) == [1, 2, 3]

    def test_close_is_idempotent(self):
        ex = ThreadExecutor(2)
        ex.map(lambda x: x, [1, 2])
        ex.close()
        ex.close()

    def test_dispatch_counts_are_thread_safe(self):
        """The serve broker and a background caller may drive the same
        executor concurrently; the ledger must not lose increments."""
        import threading

        with ThreadExecutor(2) as ex:
            def hammer():
                for _ in range(10_000):
                    ex._count(tasks=1)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert ex.dispatch_stats()["tasks"] == 40_000


class TestCostModel:
    def test_svd_stack_cost_scales_with_count(self):
        assert svd_stack_cost((16, 8), 10) == 10 * svd_stack_cost((16, 8), 1)

    def test_evd_cost_cubic(self):
        assert evd_stack_cost(8, 1) == 512.0

    def test_wcycle_cost_orientation_invariant(self):
        assert wcycle_matrix_cost(96, 80) == wcycle_matrix_cost(80, 96)


def _ragged_batch(seed: int = 7) -> list[np.ndarray]:
    """120 matrices: many SM-resident shapes plus W-cycle-sized ones."""
    rng = np.random.default_rng(seed)
    shapes = (
        [(16, 8)] * 40
        + [(12, 12)] * 30
        + [(6, 20)] * 20
        + [(24, 16)] * 24
        + [(96, 80), (80, 64), (64, 48), (48, 64), (32, 32), (8, 8)]
    )
    assert len(shapes) == 120
    return [rng.standard_normal(s) for s in shapes]


def _bucket_batch(seed: int = 11) -> list[np.ndarray]:
    """Multi-member W-cycle buckets: four 128x64 working shapes (one of
    them a transposed 64x128) and two 512x64 ones."""
    rng = np.random.default_rng(seed)
    shapes = [(128, 64)] * 3 + [(512, 64)] * 2 + [(64, 128)]
    return [rng.standard_normal(s) for s in shapes]


def _solve(batch, runtime):
    profiler = Profiler()
    with WCycleSVD(device="V100", runtime=runtime) as solver:
        results = solver.decompose_batch(batch, profiler=profiler)
        rotations = dict(solver.last_level_rotations)
    return results, profiler.report, rotations


def _assert_identical_runs(got_run, want_run):
    results, report, rotations = got_run
    ref_results, ref_report, ref_rotations = want_run
    for got, want in zip(results, ref_results):
        assert got.U.tobytes() == want.U.tobytes()
        assert got.S.tobytes() == want.S.tobytes()
        assert got.V.tobytes() == want.V.tobytes()
    assert rotations == ref_rotations
    # Launch-for-launch identical simulated accounting, not just totals.
    assert len(report.launches) == len(ref_report.launches)
    for got, want in zip(report.launches, ref_report.launches):
        assert got == want
    assert report.total_time == ref_report.total_time


class TestCrossBackendIdentity:
    """ISSUE PR 2 acceptance: parallel runs are bit-identical to serial —
    factors AND simulated-GPU accounting — on a ragged 120-matrix batch."""

    @pytest.fixture(scope="class")
    def batch(self):
        return _ragged_batch()

    @pytest.fixture(scope="class")
    def reference(self, batch):
        return _solve(batch, RuntimeConfig())

    @pytest.mark.parametrize("backend", ["threads", "processes", "persistent"])
    def test_factors_byte_identical(self, batch, reference, backend):
        runtime = RuntimeConfig(
            backend=backend, workers=4, min_shard=2, allow_oversubscribe=True
        )
        _assert_identical_runs(_solve(batch, runtime), reference)

    @pytest.fixture(scope="class")
    def bucket_batch(self):
        return _bucket_batch()

    @pytest.fixture(scope="class")
    def bucket_reference(self, bucket_batch):
        return _solve(bucket_batch, RuntimeConfig())

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("backend", ["threads", "processes", "persistent"])
    def test_multi_member_buckets_identical(
        self, bucket_batch, bucket_reference, backend, workers
    ):
        """Two multi-member W-cycle buckets: on two workers they fan out
        as two tasks; on four each is cut into two member shards, whose
        launch logs merge back into the unsplit bucket's launches. Either
        way the launches fold back in bucket order."""
        runtime = RuntimeConfig(
            backend=backend, workers=workers, min_shard=1,
            allow_oversubscribe=True,
        )
        _assert_identical_runs(
            _solve(bucket_batch, runtime), bucket_reference
        )

    def test_serial_run_is_reproducible(self, batch, reference):
        ref_results, ref_report, _ = reference
        results, report, _ = _solve(batch, RuntimeConfig())
        for got, want in zip(results, ref_results):
            assert got.S.tobytes() == want.S.tobytes()
        assert len(report.launches) == len(ref_report.launches)


class TestEstimatorIdentity:
    @pytest.mark.parametrize("backend", ["threads", "processes", "persistent"])
    def test_estimate_identical_across_backends(self, backend):
        shapes = [(64, 48)] * 30 + [(128, 96)] * 10 + [(16, 16)] * 50
        serial = WCycleEstimator(device="V100")
        try:
            want = serial.estimate_batch(shapes)
        finally:
            serial.close()
        runtime = RuntimeConfig(
            backend=backend, workers=4, allow_oversubscribe=True
        )
        parallel = WCycleEstimator(device="V100", runtime=runtime)
        try:
            got = parallel.estimate_batch(shapes)
        finally:
            parallel.close()
        assert got.total_time == want.total_time
        assert len(got.launches) == len(want.launches)
        for a, b in zip(got.launches, want.launches):
            assert a == b
