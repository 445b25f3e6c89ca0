"""repro.runtime.sanitize: dynamic shm ownership + canonical-merge audit.

These tests install the sanitizer explicitly (rather than via
``REPRO_SANITIZE=1``) so they run in the plain tier-1 suite too; the
fixture restores whatever state the session started with.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import WCycleSVD
from repro.runtime import RuntimeConfig, base_executor, sanitize, shm
from repro.runtime.arena import stranded_segments
from repro.runtime.sanitize import SanitizeError


@pytest.fixture
def sanitizer():
    """Sanitizer on, with a clean table; prior state restored afterwards."""
    was_enabled = sanitize.enabled()
    sanitize.install()
    sanitize.reset()
    yield
    if was_enabled:
        sanitize.reset()  # drop segments this test deliberately leaked
    else:
        sanitize.uninstall()


class TestEnvGate:
    def test_truthy_values(self):
        for value in ("1", "true", "YES", " on "):
            assert sanitize.env_requested({"REPRO_SANITIZE": value})

    def test_falsy_values(self):
        for env in ({}, {"REPRO_SANITIZE": ""}, {"REPRO_SANITIZE": "0"}):
            assert not sanitize.env_requested(env)


class TestOwnershipAudit:
    def test_install_uninstall_toggle(self, sanitizer):
        assert sanitize.enabled()

    def test_double_release_raises(self, sanitizer, rng):
        seg, _ = shm.export_array(rng.standard_normal((2, 2)))  # repro: noqa[SHM01] straight-line: the double release is the behavior under test
        shm.release(seg, unlink=True)
        with pytest.raises(SanitizeError, match="double release"):
            shm.release(seg)
        assert sanitize.stats()["double_releases"] == 1

    def test_write_after_release_raises(self, sanitizer, rng):
        arr = rng.standard_normal((3, 3))
        seg, ref = shm.export_array(arr)
        try:
            attached, view = shm.import_array(ref)  # repro: noqa[SHM01] straight-line on purpose
            shm.release(attached)
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 1.0  # repro: noqa[SHM01] the use-after-release under test
        finally:
            shm.release(seg, unlink=True)

    def test_leak_detection_and_recovery(self, sanitizer, rng):
        seg, _ = shm.export_array(rng.standard_normal((2, 2)))  # repro: noqa[SHM01]
        assert sanitize.leaked_segments() == [seg.name]
        with pytest.raises(SanitizeError, match="leaked"):
            sanitize.assert_no_leaks()
        shm.release(seg, unlink=True)
        assert sanitize.leaked_segments() == []
        sanitize.assert_no_leaks()

    def test_paused_suspends_auditing(self, sanitizer, rng):
        with sanitize.paused():
            seg, _ = shm.export_array(rng.standard_normal((2, 2)))  # repro: noqa[SHM01]
            shm.release(seg, unlink=True)
            shm.release(seg)  # idempotent again while paused
        assert sanitize.leaked_segments() == []

    def test_untracked_segment_release_is_quiet(self, sanitizer, rng):
        with sanitize.paused():
            seg, _ = shm.export_array(rng.standard_normal((2, 2)))  # repro: noqa[SHM01]
        shm.release(seg, unlink=True)  # acquired unaudited: nothing to say
        shm.release(seg)

    def test_stats_count_operations(self, sanitizer, rng):
        seg, ref = shm.export_array(rng.standard_normal((2, 2)))
        try:
            attached, _ = shm.import_array(ref)  # repro: noqa[SHM01] straight-line counter check
            shm.release(attached)
        finally:
            shm.release(seg, unlink=True)
        counts = sanitize.stats()
        assert counts["exports"] == 1
        assert counts["imports"] == 1
        assert counts["releases"] == 2


class TestMergeOrder:
    def test_ascending_order_passes(self, sanitizer):
        sanitize.check_merge_order("here", [0, 1, 5, 9])
        sanitize.check_merge_order("here", [])

    def test_completion_order_rejected(self, sanitizer):
        with pytest.raises(SanitizeError, match="non-canonical"):
            sanitize.check_merge_order("site", [0, 2, 1])

    def test_duplicates_rejected(self, sanitizer):
        with pytest.raises(SanitizeError, match="strictly ascending"):
            sanitize.check_merge_order("site", [0, 1, 1])

    def test_noop_when_uninstalled(self):
        if sanitize.enabled():
            pytest.skip("session runs with REPRO_SANITIZE=1")
        sanitize.check_merge_order("site", [2, 1, 0])


class TestEndToEnd:
    def test_process_backend_decompose_leaks_nothing(self, sanitizer):
        """A W-cycle solve on the persistent worker processes returns
        every arena lease it took, leaves no tracked segment live in the
        parent, and strands no arena segment once closed."""
        rng = np.random.default_rng(11)
        batch = [rng.standard_normal((16, 8)) for _ in range(6)]
        batch.append(rng.standard_normal((48, 32)))
        runtime = RuntimeConfig(
            backend="persistent", workers=2, min_shard=2,
            allow_oversubscribe=True,
        )
        with WCycleSVD(device="V100", runtime=runtime) as solver:
            results = solver.decompose_batch(batch)
            arena = base_executor(solver._executor).arena
            assert arena.stats()["leases"] > 0
            assert arena.outstanding() == 0
            prefix = arena._prefix
        assert len(results) == len(batch)
        sanitize.assert_no_leaks()
        assert [n for n in stranded_segments() if n.startswith(prefix)] == []

    def test_serial_decompose_under_sanitizer(self, sanitizer):
        rng = np.random.default_rng(12)
        batch = [rng.standard_normal((12, 8)) for _ in range(4)]
        with WCycleSVD(device="V100") as solver:
            results = solver.decompose_batch(batch)
        A = batch[0]
        R = results[0]
        err = np.linalg.norm(A - R.U @ np.diag(R.S) @ R.V.T) / np.linalg.norm(A)
        assert err < 1e-12
        sanitize.assert_no_leaks()
