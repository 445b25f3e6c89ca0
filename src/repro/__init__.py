"""W-Cycle SVD — a reproduction of "W-Cycle SVD: A Multilevel Algorithm for
Batched SVD on GPUs" (SC 2022) on a simulated-GPU substrate.

Quickstart
----------
>>> import numpy as np
>>> from repro import WCycleSVD
>>> rng = np.random.default_rng(0)
>>> batch = [rng.standard_normal((64, 48)), rng.standard_normal((16, 16))]
>>> results = WCycleSVD(device="V100").decompose_batch(batch)
>>> results.max_reconstruction_error(batch) < 1e-10
True

Layers
------
- :mod:`repro.core` — the W-cycle multilevel batched SVD (the paper's
  contribution) and its analytic cost estimator;
- :mod:`repro.jacobi` — the one-sided/two-sided Jacobi numerical kernels;
- :mod:`repro.gpusim` — the simulated-GPU substrate (devices, kernels,
  cost model, profiler);
- :mod:`repro.runtime` — host-parallel execution (serial and persistent
  backends with bit-identical results);
- :mod:`repro.tuning` — tailoring strategy and auto-tuning engine;
- :mod:`repro.baselines` — modeled cuSOLVER / MAGMA / Boukaram et al.;
- :mod:`repro.datasets` — SuiteSparse stand-ins and workload generators;
- :mod:`repro.apps.assimilation` — the oceanic data-assimilation
  application.
"""

from repro._version import __version__
from repro.core import WCycleConfig, WCycleEstimator, WCycleSVD
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    DeadlineExceeded,
    FailureReport,
    NonFiniteError,
    PlanError,
    ReproError,
    ResourceError,
    ServerClosed,
    ServerOverloaded,
    ShapeError,
    TaskFailure,
    WorkerCrashError,
)
from repro.gpusim import Profiler, get_device
from repro.runtime import (
    ResilientExecutor,
    RetryPolicy,
    RuntimeConfig,
    get_executor,
)
from repro.serve import ServeConfig, ServerStats, SVDServer
from repro.types import BatchedSVDResult, ConvergenceTrace, EVDResult, SVDResult
from repro.verify import SVDVerification, verify_svd

__all__ = [
    "__version__",
    "WCycleConfig",
    "WCycleEstimator",
    "WCycleSVD",
    "ConfigurationError",
    "ConvergenceError",
    "DeadlineExceeded",
    "FailureReport",
    "NonFiniteError",
    "PlanError",
    "ReproError",
    "ResourceError",
    "ServerClosed",
    "ServerOverloaded",
    "ShapeError",
    "TaskFailure",
    "WorkerCrashError",
    "ServeConfig",
    "ServerStats",
    "SVDServer",
    "Profiler",
    "get_device",
    "ResilientExecutor",
    "RetryPolicy",
    "RuntimeConfig",
    "get_executor",
    "BatchedSVDResult",
    "ConvergenceTrace",
    "EVDResult",
    "SVDResult",
    "SVDVerification",
    "verify_svd",
]
