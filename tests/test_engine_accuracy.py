"""The engine slice of the accuracy oracle.

The oracle's adversarial inputs (:data:`tests.helpers.INPUTS`) go through
the stacked engine — several members of a class in one
:meth:`~repro.jacobi.batched.BatchedJacobiEngine.svd_batch` call, so the
stacked path runs — and through the per-matrix reference solver
:class:`~repro.jacobi.onesided_vector.OneSidedJacobiSVD`. Both are held
to the 1e-12 contract of :func:`repro.verify.verify_svd`: backward error,
orthogonality of ``U`` and ``V``, singular values within
``1e-12 sigma_max`` of LAPACK's, and within ``1e-12`` of each value itself
on the column-graded classes.

Each class has a bound on its sweeps, one above the largest count the
engine took over seeds 0 and 1 before tall inputs were swept as their
triangular factor, so the oracle shows that the QR detour costs no sweeps.
The shapes are 16x8 and 64x32 (2:1, the detour), 128x16 (8:1, the
W-cycle's leaf panel), 24x20 (below 2:1, the plain sweep) and a single
column, whose ``wide`` class is a single row.

The scale classes put a 16x8 Gaussian, its transpose and a 64x32
Gaussian at 1e-310 (subnormal) to 1e300 through one call. They are
checked on the exactly rescaled input ``2^-e A``, whose LAPACK factors
are the exact reference, and take the sweeps of their unscaled class.

One seed runs in tier-1; the second is marked ``slow``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.jacobi import BatchedJacobiEngine, OneSidedJacobiSVD
from tests.helpers import GRADED, INPUTS, assert_meets_contract, rescaled

#: Members of one class solved together in one engine call.
MEMBERS = 3

#: Sweeps each class may take, per shape: one above the largest count
#: measured over seeds 0 and 1 with the plain sweep (no QR detour).
MAX_SWEEPS = {
    (16, 8): {
        "gaussian": 8, "cols-1e-5": 6, "cols-1e-8": 6, "rows-1e-8": 9,
        "rank-half": 8, "zero-columns": 7, "clustered": 6, "repeated": 6,
        "geometric": 10, "wide": 8,
    },
    (64, 32): {
        "gaussian": 10, "cols-1e-5": 8, "cols-1e-8": 8, "rows-1e-8": 15,
        "rank-half": 11, "zero-columns": 9, "clustered": 8, "repeated": 13,
        "geometric": 21, "wide": 10,
    },
    (128, 16): {
        "gaussian": 9, "cols-1e-5": 7, "cols-1e-8": 7, "rows-1e-8": 10,
        "rank-half": 10, "zero-columns": 8, "clustered": 7, "repeated": 10,
        "geometric": 15, "wide": 8,
    },
    (24, 20): {
        "gaussian": 10, "cols-1e-5": 9, "cols-1e-8": 9, "rows-1e-8": 15,
        "rank-half": 10, "zero-columns": 9, "clustered": 7, "repeated": 11,
        "geometric": 17, "wide": 9,
    },
    (17, 1): {"gaussian": 1, "wide": 1},
}

#: Scales of the scale classes: at 1e±77 and beyond the products of
#: squared column norms leave the floating-point range unless the engine
#: shifts the input first; 1e-310 makes every entry subnormal.
SCALES = (
    1e-310, 1e-300, 1e-200, 1e-160, 1e-100, 1e-77,
    1e77, 1e100, 1e160, 1e200, 1e300,
)


def _cases():
    for shape, classes in MAX_SWEEPS.items():
        for seed in (0, 1):
            marks = () if seed == 0 else (pytest.mark.slow,)
            for name in classes:
                yield pytest.param(
                    name, shape, seed, marks=marks,
                    id=f"{name}-{shape[0]}x{shape[1]}-seed{seed}",
                )


@pytest.mark.parametrize("name, shape, seed", list(_cases()))
def test_engine_and_reference_meet_the_contract(name, shape, seed):
    rng = np.random.default_rng([seed, *shape])
    mats = [INPUTS[name](rng, *shape) for _ in range(MEMBERS)]
    reference = OneSidedJacobiSVD()
    bound = MAX_SWEEPS[shape][name]
    results = BatchedJacobiEngine().svd_batch(mats)
    for k, (A, res) in enumerate(zip(mats, results)):
        for path, result in (
            ("engine", res), ("reference", reference.decompose(A))
        ):
            label = f"{path} member {k}"
            assert_meets_contract(
                A, result, relative=name in GRADED, label=label
            )
            assert result.trace.sweeps <= bound, (label, result.trace.sweeps)


@pytest.mark.parametrize("scale", SCALES, ids=lambda s: f"{s:g}")
def test_scaled_inputs_meet_the_contract(scale):
    rng = np.random.default_rng(7)
    mats = [
        rng.standard_normal((16, 8)) * scale,
        rng.standard_normal((16, 8)) * scale,
        rng.standard_normal((8, 16)) * scale,
        rng.standard_normal((64, 32)) * scale,
    ]
    reference = OneSidedJacobiSVD()
    results = BatchedJacobiEngine().svd_batch(mats)
    for k, (A, res) in enumerate(zip(mats, results)):
        bound = MAX_SWEEPS[max(A.shape), min(A.shape)]["gaussian"]
        for path, result in (
            ("engine", res), ("reference", reference.decompose(A))
        ):
            label = f"{path} member {k}"
            assert np.isfinite(result.S).all(), (label, result.S)
            assert_meets_contract(*rescaled(A, result), label=label)
            assert result.trace.sweeps <= bound, (label, result.trace.sweeps)
