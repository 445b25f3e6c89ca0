"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim import V100


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        help="also run the tests marked slow (the full accuracy oracle)",
    )


def pytest_collection_modifyitems(config, items):
    """Tier-1 deselects the tests marked slow; ``--run-slow`` runs them."""
    if config.getoption("--run-slow"):
        return
    slow = [item for item in items if "slow" in item.keywords]
    if slow:
        config.hook.pytest_deselected(items=slow)
        items[:] = [item for item in items if "slow" not in item.keywords]


@pytest.fixture
def chaos():
    """Arm a deterministic fault plan for the test body.

    Yields an ``arm(spec)`` callable: parses a ``REPRO_FAULTS`` spec,
    installs it, and returns the plan. Teardown restores whatever plan was
    installed before the test (possibly the session's env-armed plan), so
    chaos tests compose with a ``REPRO_FAULTS`` CI run.
    """
    from repro.runtime import faults

    prev = faults.installed()

    def arm(spec: str) -> faults.FaultPlan:
        plan = faults.parse_spec(spec)
        faults.install(plan)
        return plan

    yield arm
    if prev is None:
        faults.uninstall()
    else:
        faults.install(prev)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests that need different streams jump it."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def device():
    """The paper's primary platform."""
    return V100


@pytest.fixture
def small_matrix(rng) -> np.ndarray:
    """A well-conditioned 12 x 8 test matrix."""
    return rng.standard_normal((12, 8))


@pytest.fixture
def symmetric_matrix(rng) -> np.ndarray:
    """A 10 x 10 symmetric test matrix."""
    M = rng.standard_normal((10, 10))
    return (M + M.T) / 2.0
