"""Micro-batcher semantics: buckets, ordering, and flush triggers.

The batcher is a pure data structure (every method takes ``now``), so
these tests drive every flush trigger with explicit timestamps — no
sleeps, no wall clock.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve.batcher import FLUSH_CAUSES, MicroBatcher
from repro.serve.request import ServeRequest


def make_request(
    request_id,
    shape=(8, 4),
    *,
    priority=0,
    deadline=None,
    arrival=0.0,
):
    return ServeRequest(
        request_id=request_id,
        matrix=np.zeros(shape),
        priority=priority,
        deadline=deadline,
        arrival=arrival,
    )


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(max_wait=-1.0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(deadline_slack=-0.1)


class TestBucketIsolation:
    def test_shapes_never_mix(self):
        batcher = MicroBatcher(max_batch=2, max_wait=1.0)
        assert batcher.add(make_request(0, (8, 4)), now=0.0) == []
        assert batcher.add(make_request(1, (16, 8)), now=0.0) == []
        # Filling the 8x4 bucket flushes only the 8x4 requests.
        flushed = batcher.add(make_request(2, (8, 4)), now=0.0)
        assert len(flushed) == 1
        assert flushed[0].shape == (8, 4)
        assert flushed[0].request_ids == (0, 2)
        # The 16x8 request is still queued in its own bucket.
        assert len(batcher) == 1
        assert batcher.bucket_depths == {(16, 8): 1}

    def test_wait_flush_takes_only_the_due_bucket(self):
        batcher = MicroBatcher(max_batch=8, max_wait=0.010)
        batcher.add(make_request(0, (8, 4), arrival=0.0), now=0.0)
        batcher.add(make_request(1, (16, 8), arrival=0.008), now=0.008)
        due = batcher.due(now=0.011)
        assert [b.shape for b in due] == [(8, 4)]
        assert due[0].cause == "wait"
        assert len(batcher) == 1


class TestLateBinding:
    """``due`` flushes one bucket per call, the most pressed one, so the
    server can solve it before it picks again."""

    def test_due_flushes_only_the_earliest_pressed_bucket(self):
        batcher = MicroBatcher(max_batch=8, max_wait=0.010)
        batcher.add(make_request(0, (8, 4), arrival=0.0), now=0.0)
        batcher.add(make_request(1, (16, 8), arrival=0.001), now=0.001)
        # Both buckets are past max_wait; (8, 4) has waited longer.
        (first,) = batcher.due(now=0.020)
        assert first.shape == (8, 4)
        assert first.cause == "wait"
        assert batcher.bucket_depths == {(16, 8): 1}
        # A request added while (8, 4) is solved rides (16, 8)'s batch.
        batcher.add(make_request(2, (16, 8), arrival=0.025), now=0.025)
        (second,) = batcher.due(now=0.025)
        assert second.shape == (16, 8)
        assert second.request_ids == (1, 2)
        assert second.cause == "wait"
        assert batcher.due(now=0.025) == []
        assert len(batcher) == 0

    def test_deadline_pressure_can_come_first(self):
        batcher = MicroBatcher(
            max_batch=8, max_wait=0.010, deadline_slack=0.002
        )
        batcher.add(make_request(0, (8, 4), arrival=0.0), now=0.0)
        # Arrives later, but its deadline presses from 0.009 - 0.002 =
        # 0.007, before (8, 4)'s wait fires at 0.010.
        batcher.add(
            make_request(1, (16, 8), deadline=0.009, arrival=0.005),
            now=0.005,
        )
        (first,) = batcher.due(now=0.012)
        assert first.shape == (16, 8)
        assert first.cause == "deadline"
        assert batcher.bucket_depths == {(8, 4): 1}
        (second,) = batcher.due(now=0.012)
        assert second.shape == (8, 4)
        assert second.cause == "wait"


class TestFlushTriggers:
    def test_fill_flush_fires_on_add(self):
        batcher = MicroBatcher(max_batch=3, max_wait=10.0)
        for i in range(2):
            assert batcher.add(make_request(i), now=0.0) == []
        flushed = batcher.add(make_request(2), now=0.0)
        assert len(flushed) == 1
        assert flushed[0].cause == "fill"
        assert len(flushed[0]) == 3
        assert len(batcher) == 0

    def test_wait_flush_respects_max_wait(self):
        batcher = MicroBatcher(max_batch=8, max_wait=0.005)
        batcher.add(make_request(0, arrival=1.000), now=1.000)
        assert batcher.due(now=1.004) == []
        due = batcher.due(now=1.006)
        assert len(due) == 1
        assert due[0].cause == "wait"

    def test_deadline_pressure_flush(self):
        batcher = MicroBatcher(
            max_batch=8, max_wait=10.0, deadline_slack=0.002
        )
        batcher.add(
            make_request(0, deadline=0.010, arrival=0.0), now=0.0
        )
        # Far from the deadline: no pressure yet.
        assert batcher.due(now=0.005) == []
        # Within the slack: flush even though max_wait is nowhere near.
        due = batcher.due(now=0.008)
        assert len(due) == 1
        assert due[0].cause == "deadline"

    def test_drain_flushes_everything(self):
        batcher = MicroBatcher(max_batch=4, max_wait=10.0)
        for i, shape in enumerate([(8, 4), (16, 8), (8, 4)]):
            batcher.add(make_request(i, shape), now=0.0)
        drained = batcher.drain(now=0.0)
        assert sorted(len(b) for b in drained) == [1, 2]
        assert all(b.cause == "drain" for b in drained)
        assert len(batcher) == 0

    def test_stream_flushes_in_max_batch_chunks(self):
        batcher = MicroBatcher(max_batch=2, max_wait=10.0)
        flushed = []
        for i in range(5):
            flushed += batcher.add(make_request(i), now=0.0)
        flushed += batcher.drain(now=0.0)
        assert [len(b) for b in flushed] == [2, 2, 1]
        assert [b.cause for b in flushed] == ["fill", "fill", "drain"]

    def test_flush_causes_constant_is_exhaustive(self):
        assert set(FLUSH_CAUSES) == {"fill", "wait", "deadline", "drain"}


class TestOrdering:
    def test_priority_orders_dequeue(self):
        batcher = MicroBatcher(max_batch=8, max_wait=0.0)
        for rid, priority in [(0, 0), (1, 5), (2, 1)]:
            batcher.add(make_request(rid, priority=priority), now=0.0)
        (batch,) = batcher.due(now=0.0)
        assert batch.request_ids == (1, 2, 0)

    def test_edf_within_a_priority_band(self):
        batcher = MicroBatcher(max_batch=8, max_wait=0.0)
        for rid, deadline in [(0, 0.9), (1, 0.3), (2, None)]:
            batcher.add(make_request(rid, deadline=deadline), now=0.0)
        (batch,) = batcher.due(now=0.0)
        # Earliest deadline first; deadline-free requests go last.
        assert batch.request_ids == (1, 0, 2)

    def test_fifo_breaks_remaining_ties(self):
        batcher = MicroBatcher(max_batch=8, max_wait=0.0)
        for rid in (3, 7, 5):
            batcher.add(make_request(rid), now=0.0)
        (batch,) = batcher.due(now=0.0)
        assert batch.request_ids == (3, 5, 7)

    def test_priority_beats_deadline(self):
        batcher = MicroBatcher(max_batch=8, max_wait=0.0)
        batcher.add(make_request(0, priority=0, deadline=0.1), now=0.0)
        batcher.add(make_request(1, priority=1, deadline=None), now=0.0)
        (batch,) = batcher.due(now=0.0)
        assert batch.request_ids == (1, 0)


class TestNextDue:
    def test_empty_batcher_has_no_horizon(self):
        assert MicroBatcher().next_due(now=0.0) is None

    def test_wait_horizon(self):
        batcher = MicroBatcher(max_batch=8, max_wait=0.010)
        batcher.add(make_request(0, arrival=1.0), now=1.0)
        assert batcher.next_due(now=1.0) == pytest.approx(0.010)
        assert batcher.next_due(now=1.004) == pytest.approx(0.006)

    def test_deadline_tightens_the_horizon(self):
        batcher = MicroBatcher(
            max_batch=8, max_wait=10.0, deadline_slack=0.001
        )
        batcher.add(
            make_request(0, deadline=0.005, arrival=0.0), now=0.0
        )
        assert batcher.next_due(now=0.0) == pytest.approx(0.004)

    def test_overdue_clamps_to_zero(self):
        batcher = MicroBatcher(max_batch=8, max_wait=0.001)
        batcher.add(make_request(0, arrival=0.0), now=0.0)
        assert batcher.next_due(now=5.0) == 0.0
