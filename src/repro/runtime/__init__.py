"""Host-parallel execution runtime for the batched solvers.

The simulated GPU executes a batch concurrently — one thread block per
matrix, independent kernel launches per sweep step — while the host-side
NumPy pipeline of the seed ran everything on a single core. This package
supplies the missing host axis:

- :mod:`repro.runtime.executor` — the :class:`Executor` abstraction with
  its two backends, the ``serial`` reference and ``persistent``, and
  cost-aware largest-first scheduling;
- :mod:`repro.runtime.arena` — pre-pinned shared-memory arenas with a
  slot-lease protocol (allocate once, lease per task, return once it
  resolves), the only shared-memory mechanism. The arena enforces its
  protocol on every run: a double or foreign release raises;
- :mod:`repro.runtime.persistent` — the ``persistent`` backend and the
  only user of arenas: long-lived supervised fork workers that attach
  arenas once at spawn and take batched task manifests (one IPC
  round-trip per worker per map). The ndarrays of the items it ships
  travel through leased slots; results pickle back;
- :mod:`repro.runtime.scheduler` — flop-cost estimates and deterministic
  bucket-shard planning (LPT-style ordering, stable tie-breaks);
- :mod:`repro.runtime.faults` — deterministic fault injection. Set
  ``REPRO_FAULTS=<spec>`` (e.g. ``seed=7;kill:p=0.1``) to arm seeded
  worker-death / hang / NaN / segment-loss injections inside resilient
  task frames;
- :mod:`repro.runtime.resilient` — the :class:`ResilientExecutor`
  supervisor: per-task deadlines, bounded deterministic retries with
  exponential backoff, dead-pool respawn, and the degradation ladder
  down to the serial rung (persistent → serial).

The contract threaded through every consumer (`BatchedJacobiEngine`, the
batched kernels, `WCycleSVD`, `SVDServer`) is **bit-identical results**: parallel execution only partitions work whose per-matrix
arithmetic is already independent, and all simulated accounting
(:class:`~repro.gpusim.counters.KernelStats`, profiler reports) is merged
in a canonical order that reproduces the serial recording sequence exactly.
"""

from repro.runtime.executor import (
    BACKEND_ENV_VAR,
    BACKENDS,
    ON_FAILURE_MODES,
    Executor,
    RuntimeConfig,
    SerialExecutor,
    TaskError,
    get_executor,
)
from repro.runtime.scheduler import (
    degradation_ladder,
    evd_stack_cost,
    retry_backoff,
    shard_count,
    split_shards,
    svd_stack_cost,
    wcycle_matrix_cost,
)
from repro.runtime.arena import Arena, ArenaSpec, SlotRef
from repro.runtime.persistent import PersistentExecutor, WorkerPoolBroken
from repro.runtime import faults
from repro.runtime.faults import FaultClause, FaultPlan
from repro.runtime.resilient import (
    ResilientExecutor,
    RetryPolicy,
    base_executor,
    policy_of,
)

_env_fault_plan = faults.env_plan()
if _env_fault_plan is not None:
    faults.install(_env_fault_plan)

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "ON_FAILURE_MODES",
    "faults",
    "Executor",
    "RuntimeConfig",
    "SerialExecutor",
    "TaskError",
    "get_executor",
    "ResilientExecutor",
    "RetryPolicy",
    "base_executor",
    "policy_of",
    "FaultClause",
    "FaultPlan",
    "svd_stack_cost",
    "evd_stack_cost",
    "wcycle_matrix_cost",
    "shard_count",
    "split_shards",
    "degradation_ladder",
    "retry_backoff",
    "Arena",
    "ArenaSpec",
    "SlotRef",
    "PersistentExecutor",
    "WorkerPoolBroken",
]
