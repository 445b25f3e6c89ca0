"""The W-cycle slice of the accuracy oracle.

Adversarial inputs go through the W-cycle levels and are held to the
1e-12 contract by :func:`repro.verify.verify_svd`: backward error,
orthogonality of ``U`` and ``V``, and singular values within
``1e-12 sigma_max`` of LAPACK's — within ``1e-12`` of each value itself on
the column-graded classes, where one-sided Jacobi is relatively accurate.
Each class also has a bound on its outer sweeps, pinned just above the
counts measured when the leaves got their per-member stop tolerance, so a
drift in convergence shows here before it shows in timings.

The shapes reach the three kinds of leaf: 128x64 steps solve in-SM SVDs,
512x64 steps Gram EVDs, and 256x128 steps recurse. One seed of the first
two runs in tier-1; the 256x128 cases and a second seed are marked
``slow`` and run with ``--run-slow``.

The scale classes put a 16x8 (whole in shared memory), a 128x64 and a
512x64 Gaussian at 1e-310 to 1e300 through one ``decompose_batch`` call,
checked on the exactly rescaled input ``2^-e A``; two scales run in
tier-1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import WCycleSVD
from repro.verify import verify_svd
from tests.helpers import (
    GRADED,
    INPUTS,
    assert_meets_contract,
    rescaled,
)

TOL = 1e-12


#: Outer sweeps each class may take, per shape: one above the largest
#: count measured over seeds 0 and 1.
MAX_SWEEPS = {
    (128, 64): {
        "gaussian": 7, "cols-1e-5": 6, "cols-1e-8": 6, "rows-1e-8": 10,
        "rank-half": 8, "zero-columns": 7, "clustered": 5, "repeated": 11,
        "geometric": 11, "wide": 7,
    },
    (512, 64): {
        "gaussian": 7, "cols-1e-5": 5, "cols-1e-8": 5, "rows-1e-8": 8,
        "rank-half": 8, "zero-columns": 7, "clustered": 5, "repeated": 10,
        "geometric": 11, "wide": 7,
    },
    (256, 128): {
        "gaussian": 9, "cols-1e-5": 7, "cols-1e-8": 6, "rows-1e-8": 17,
        "rank-half": 10, "zero-columns": 9, "clustered": 6, "repeated": 15,
        "geometric": 19, "wide": 9,
    },
}


def _cases():
    slow = pytest.mark.slow
    for shape in MAX_SWEEPS:
        for seed in (0, 1):
            marks = () if shape != (256, 128) and seed == 0 else (slow,)
            for name in INPUTS:
                yield pytest.param(
                    name, shape, seed, marks=marks,
                    id=f"{name}-{shape[0]}x{shape[1]}-seed{seed}",
                )


@pytest.fixture(scope="module")
def solver():
    with WCycleSVD(device="V100") as solver:
        yield solver


@pytest.mark.parametrize("name, shape, seed", list(_cases()))
def test_wcycle_meets_the_contract(solver, name, shape, seed):
    rng = np.random.default_rng([seed, *shape])
    A = INPUTS[name](rng, *shape)
    result = solver.decompose(A)
    assert_meets_contract(A, result, relative=name in GRADED)
    assert result.trace.sweeps <= MAX_SWEEPS[shape][name], result.trace.sweeps


@pytest.mark.parametrize("g", [5, 6, 8, 10])
def test_graded_gram_leaves_converge(solver, g):
    """Column grading past 1e-4 used to stall the Gram leaves of a 512x64
    matrix: their ``eps ||B||_F`` noise floor hid pairs of small columns
    whose cosine the outer test still counted (``ConvergenceError`` after
    60 sweeps at a residual of 2.7e-11 and up)."""
    rng = np.random.default_rng(g)
    A = rng.standard_normal((512, 64)) * np.logspace(0, -g, 64)
    result = solver.decompose(A)
    report = verify_svd(A, result)
    assert report.v_orthogonality <= 1e-13, report.summary()
    assert report.sv_relative_error <= TOL, report.sv_relative_error
    assert result.trace.sweeps <= 5


#: Scales of the scale classes. Without the prescale, this test's 128x64
#: and 512x64 Gaussians raised ``ConvergenceError`` or ``ShapeError``, or
#: came back with 100%-wrong singular values, at all of them but 1e-77.
SCALES = (1e-310, 1e-300, 1e-160, 1e-100, 1e-77, 1e77, 1e100, 1e160, 1e300)


@pytest.mark.parametrize(
    "scale",
    [
        pytest.param(
            s, marks=() if s in (1e-160, 1e160) else (pytest.mark.slow,),
            id=f"{s:g}",
        )
        for s in SCALES
    ],
)
def test_scaled_inputs_meet_the_contract(solver, scale):
    rng = np.random.default_rng(11)
    mats = [
        rng.standard_normal(shape) * scale
        for shape in ((16, 8), (128, 64), (512, 64))
    ]
    for A, result in zip(mats, solver.decompose_batch(mats)):
        assert np.isfinite(result.S).all(), (A.shape, result.S)
        assert_meets_contract(*rescaled(A, result), label=str(A.shape))
        if A.shape in MAX_SWEEPS:
            assert result.trace.sweeps <= MAX_SWEEPS[A.shape]["gaussian"]
