"""Pivot-ordering schedules: coverage, disjointness, registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.orderings import (
    OddEvenOrdering,
    RingOrdering,
    RoundRobinOrdering,
    available_orderings,
    get_ordering,
    validate_sweep,
)

ALL_ORDERINGS = [RoundRobinOrdering, OddEvenOrdering, RingOrdering]


@pytest.mark.parametrize("cls", ALL_ORDERINGS)
class TestSweepValidity:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 16, 31])
    def test_valid_schedule(self, cls, n):
        validate_sweep(cls().sweep(n), n)

    def test_pairs_iterator_covers_everything(self, cls):
        pairs = set(cls().pairs(6))
        assert pairs == {(i, j) for i in range(6) for j in range(i + 1, 6)}

    def test_rotations_per_sweep(self, cls):
        assert cls().rotations_per_sweep(10) == 45

    def test_rejects_n_below_two(self, cls):
        with pytest.raises(ConfigurationError):
            cls().sweep(1)


class TestRoundRobin:
    def test_minimum_steps_even(self):
        # n - 1 steps of n/2 pairs is optimal for even n.
        sweep = RoundRobinOrdering().sweep(8)
        assert len(sweep) == 7
        assert all(len(step) == 4 for step in sweep)

    def test_odd_n_has_byes(self):
        sweep = RoundRobinOrdering().sweep(5)
        assert len(sweep) == 5
        assert all(len(step) == 2 for step in sweep)

    def test_n_two(self):
        assert RoundRobinOrdering().sweep(2) == [[(0, 1)]]


class TestOddEven:
    def test_steps_at_most_linear(self):
        for n in (4, 8, 12):
            assert len(OddEvenOrdering().sweep(n)) <= 2 * n


class TestValidateSweep:
    def test_detects_index_reuse_within_step(self):
        with pytest.raises(ConfigurationError, match="reused"):
            validate_sweep([[(0, 1), (1, 2)]], 3)

    def test_detects_duplicate_pair(self):
        with pytest.raises(ConfigurationError, match="twice"):
            validate_sweep([[(0, 1)], [(0, 1)], [(0, 2)], [(1, 2)]], 3)

    def test_detects_missing_pair(self):
        with pytest.raises(ConfigurationError, match="covers"):
            validate_sweep([[(0, 1)]], 3)

    def test_detects_out_of_range(self):
        with pytest.raises(ConfigurationError, match="invalid pair"):
            validate_sweep([[(0, 3)]], 3)

    def test_detects_swapped_order(self):
        with pytest.raises(ConfigurationError, match="invalid pair"):
            validate_sweep([[(1, 0)]], 2)


class TestRegistry:
    def test_available(self):
        names = available_orderings()
        assert {"round-robin", "odd-even", "ring"} <= set(names)

    def test_get_by_name(self):
        assert isinstance(get_ordering("ring"), RingOrdering)

    def test_instance_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown ordering"):
            get_ordering(RoundRobinOrdering())

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown ordering"):
            get_ordering("spiral")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    name=st.sampled_from(["round-robin", "odd-even", "ring"]),
)
def test_any_ordering_is_valid_sweep(n, name):
    """Property: every ordering yields a complete disjoint-step sweep."""
    validate_sweep(get_ordering(name).sweep(n), n)
