"""The benchmark's workloads: seeded inputs, set-up and the measured loops.

Batch workloads call ``WCycleSVD(device="V100").decompose_batch`` on a
fixed batch; serving workloads drive one ``SVDServer()`` from the calling
thread, open-loop (Poisson arrivals, latency timed from each request's due
time) or closed-loop (a fixed number of requests outstanding). Inputs are
``standard_normal`` draws from ``default_rng(seed)``; the program sees only
the generated arrays. Every output is verified outside the timed region.

Host-speed scaling: on a shared host the speed of a core drifts by up to
2x over minutes, which no statistic over one run removes. Each measured
operation is therefore bracketed by :func:`calibrate`, a fixed kernel
independent of ``repro``, and its time is also reported scaled by
``CAL_REF_S / calibration time``: the time it would have taken on the
reference host. Raw times are kept alongside. The calibration counts its
own thread's CPU time, so work that ``repro`` leaves running in other
threads or processes does not slow it and cannot shrink a scaled time.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (
    Profiler,
    RuntimeConfig,
    ServerOverloaded,
    SVDServer,
    WCycleSVD,
    get_executor,
)

from benchmarks.e2e.verify import Check, check_results

__all__ = [
    "WORKLOADS",
    "Workload",
    "Phase",
    "Load",
    "calibrate",
    "open_loop",
    "closed_loop",
    "make",
    "timed_setup",
]

#: Request shapes of the serving workloads, drawn uniformly.
SERVE_SHAPES = ((16, 8), (24, 12), (32, 16))
#: Requests that warm a server during set-up.
WARM_REQUESTS = 64
#: A served request misses its latency objective beyond this many seconds.
SLO_S = 0.150
#: Longest wait for one outstanding future before the run is abandoned.
RESULT_TIMEOUT_S = 60.0
#: A serving run is split into this many blocks with a calibration between
#: blocks; traced runs alternate untraced and traced blocks.
SERVE_BLOCKS = 10
#: Seconds :func:`calibrate` takes on the reference host (a quiet 2-vCPU
#: x86-64 VM); scaled times read as wall-clock times on that host.
CAL_REF_S = 0.013

_SMALL_MIX = ((16, 8), (24, 12), (16, 8), (32, 16), (24, 12))
_WCYCLE = ((128, 64),) * 2 + ((512, 64),) * 2 + ((64, 32),) * 4


def calibrate() -> float:
    """CPU seconds of the calling thread a fixed kernel takes on this host now.

    The kernel mimics the program's mix without calling it: small stacked
    ``einsum`` products and elementwise updates (a Jacobi-like sweep), then
    a pure-interpreter loop. On an uncontended CPU its thread time equals
    its wall time and follows the host's speed; time spent waiting while
    other threads or processes run (a server thread, a worker still busy)
    is not counted.
    """
    t0 = time.thread_time()
    x = np.random.default_rng(0).standard_normal((16, 24, 12))
    for _ in range(60):
        g = np.einsum("bmi,bmj->bij", x, x)
        d = np.sqrt(np.abs(np.einsum("bii->bi", g))) + 1.0
        r = np.tanh(g / (d[:, :, None] * d[:, None, :])) * 0.01
        x = x + np.einsum("bmi,bij->bmj", x, r)
        x /= np.abs(x).max()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    return time.thread_time() - t0


def _scale(before: float, after: float) -> float:
    return CAL_REF_S / ((before + after) / 2)


def timed_setup(run) -> tuple[float, float, object]:
    """``(raw seconds, scaled seconds, warm output)`` of ``run.setup()``.

    The run is pinned to one CPU before set-up or, when it has worker
    processes, after: set-up forks them, and they need every CPU.
    """
    workers = run.workload.workers
    if not workers:
        run.pin()
    calibrate()  # the first call pays NumPy's one-time dispatch set-up
    before = calibrate()
    t0 = time.perf_counter()
    warm = run.setup()
    elapsed = time.perf_counter() - t0
    if workers:
        run.pin()
    return elapsed, elapsed * _scale(before, calibrate()), warm


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the way it is driven."""

    name: str
    shapes: tuple = ()
    #: Persistent-backend workers for the batch solver (0: serial).
    workers: int = 0
    #: Serving: requests per measured second. Open loop: the arrival rate
    #: on the reference host (Poisson arrivals conditioned on their count).
    #: Closed loop: sizes the run only, so that the request count (and the
    #: memory holding results) does not vary with speed.
    rate: float = 0.0
    #: Closed-loop window: requests kept outstanding (0: open loop).
    window: int = 0

    @property
    def serving(self) -> bool:
        return not self.shapes


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("batch-small", shapes=((16, 8),) * 256 + _SMALL_MIX * 24),
        Workload("batch-mid", shapes=((64, 32),) * 64),
        Workload("batch-wcycle", shapes=_WCYCLE),
        Workload("batch-wcycle-par", shapes=_WCYCLE, workers=2),
        Workload("serve-open", rate=400.0),
        Workload("serve-saturate", rate=1200.0, window=64),
    )
}


@dataclass
class Load:
    """Per-request record of one serving block (times from ``clock``)."""

    matrices: list = field(default_factory=list)
    due: list = field(default_factory=list)
    sent: list = field(default_factory=list)
    done: list = field(default_factory=list)
    #: The request's future, or ``None`` when the server refused it.
    futures: list = field(default_factory=list)
    #: When the block started.
    start: float = 0.0


def _send(load: Load, submit, matrix, due: float, clock, on_done=None) -> None:
    i = len(load.matrices)
    load.matrices.append(matrix)
    load.due.append(due)
    load.done.append(math.nan)
    load.sent.append(clock())
    try:
        fut = submit(matrix)
    except ServerOverloaded:
        load.futures.append(None)
        if on_done is not None:
            on_done()
        return
    load.futures.append(fut)

    def finished(_fut) -> None:
        load.done[i] = clock()
        if on_done is not None:
            on_done()

    fut.add_done_callback(finished)


def open_loop(
    submit, matrices, offsets, *, clock=time.perf_counter, sleep=time.sleep
) -> Load:
    """Send ``matrices[i]`` at ``offsets[i]`` seconds after the start.

    The schedule does not wait for results, and a request's latency runs
    from its due time: when a ``submit`` stalls, the requests due during
    the stall go out late and are charged for it.
    """
    load = Load(start=clock())
    for matrix, offset in zip(matrices, offsets):
        due = load.start + float(offset)
        delay = due - clock()
        if delay > 0:
            sleep(delay)
        _send(load, submit, matrix, due, clock)
    return load


def closed_loop(submit, next_matrix, count: int, window: int) -> Load:
    """Send ``count`` requests, keeping ``window`` of them outstanding.

    A slot is freed by the done-callback of a request, which runs on the
    server's dispatch thread; the next request is due when it gets a slot.
    """
    clock = time.perf_counter
    load = Load(start=clock())
    slots = threading.Semaphore(window)
    for _ in range(count):
        slots.acquire()
        matrix = next_matrix()
        _send(load, submit, matrix, clock(), clock, on_done=slots.release)
    return load


@dataclass
class Phase:
    """What the untraced (or the traced) part of a run produced.

    ``latencies`` holds seconds per operation: a ``decompose_batch`` call
    for batch workloads, a request (from its due time) for serving ones;
    ``scaled`` holds the same at reference host speed. ``wall`` is the
    measured time: the sum of call times, or of each block's span from its
    start to its last completion.
    """

    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    wall: float = 0.0
    ops: int = 0
    done: int = 0
    attempted: int = 0
    failed: int = 0
    check: Check = field(default_factory=Check)
    #: Serving only: each block's requests and server stats around it.
    loads: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    #: Batch only: the simulated-GPU profile of the latest call.
    profile: object = None

    def record(self, latencies, wall: float, factor: float) -> None:
        """Add samples taken at host-speed ``factor``."""
        self.latencies.extend(latencies)
        self.scaled.extend(t * factor for t in latencies)
        self.wall += wall

    def quantile_ms(self, q: float, *, raw: bool = False) -> float:
        values = self.latencies if raw else self.scaled
        return float(np.percentile(values, q)) * 1e3 if values else 0.0


class _Run:
    """What both kinds of run share: CPU pinning and calibration times."""

    executor = None
    _cpus: set | None = None

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        #: Every calibration time of the measured phase, in seconds.
        self.calibrations: list[float] = []

    def pin(self) -> None:
        """Keep this process's Python threads, and the threads they start,
        on one CPU.

        Each CPU of a shared host drifts in speed on its own, and the
        calibration times the CPU it runs on, so the measured work has to
        run there too. Sharing one CPU also keeps a thread that ``repro``
        leaves busy from contending for the interpreter lock from another
        CPU, which inflates even the calibration's thread CPU time several
        times over. Worker processes forked before the call keep every
        CPU, and so do BLAS threads. Nothing is pinned where affinity is
        unsupported.
        """
        if not hasattr(os, "sched_setaffinity"):
            return
        self._cpus = os.sched_getaffinity(0)
        _set_affinity({max(self._cpus)})

    def close(self) -> None:
        if self._cpus is not None:
            _set_affinity(self._cpus)
            self._cpus = None


def _set_affinity(cpus: set) -> None:
    """Set the CPUs of every Python thread of this process."""
    for thread in threading.enumerate():
        with contextlib.suppress(ProcessLookupError):  # the thread ended
            os.sched_setaffinity(thread.native_id, cpus)


class BatchRun(_Run):
    """A batch workload: one solver, one fixed batch, repeated calls."""

    def __init__(self, workload: Workload, seed: int) -> None:
        super().__init__(workload)
        rng = np.random.default_rng(seed)
        self.matrices = [rng.standard_normal(s) for s in workload.shapes]
        self.solver = None

    def setup(self):
        """Build the solver (and its worker pool); return the warm call."""
        workers = self.workload.workers
        if workers:
            self.executor = get_executor(
                RuntimeConfig(backend="persistent", workers=workers)
            )
        self.solver = WCycleSVD(device="V100", runtime=self.executor)
        return self.solver.decompose_batch(self.matrices, profiler=Profiler())

    def check_setup(self, warm) -> Check:
        return check_results(self.matrices, warm.results)

    def measure(self, seconds: float, tracer=None) -> tuple[Phase, Phase | None]:
        """Call repeatedly until ``seconds`` of call time have passed.

        A calibration follows every call. With a tracer, untraced and
        traced calls alternate so both phases see the same host
        conditions; each phase gets at least one call.
        """
        plain = Phase()
        traced = Phase() if tracer is not None else None
        n = len(self.matrices)
        before = calibrate()
        self.calibrations.append(before)
        index = 0
        while (
            plain.wall + (traced.wall if traced else 0.0) < seconds
            or not plain.ops
            or (traced is not None and not traced.ops)
        ):
            phase = traced if traced is not None and index % 2 else plain
            profiler = Profiler()
            t0 = time.perf_counter()
            try:
                if phase is traced:
                    tracer.context["call"] = index
                    with tracer:
                        result = self.solver.decompose_batch(
                            self.matrices, profiler=profiler
                        )
                else:
                    result = self.solver.decompose_batch(
                        self.matrices, profiler=profiler
                    )
            except Exception as exc:  # a failed call counts against the run
                result = None
                print(f"decompose_batch failed: {exc!r}", file=sys.stderr)
            elapsed = time.perf_counter() - t0
            after = calibrate()
            self.calibrations.append(after)
            factor = _scale(before, after)
            before = after
            index += 1
            phase.ops += 1
            phase.attempted += n
            if result is None:
                phase.failed += n
                phase.record([], elapsed, factor)
                continue
            phase.record([elapsed], elapsed, factor)
            check = check_results(self.matrices, result.results)
            phase.check.merge(check)
            phase.failed += check.failed
            phase.done += n - check.failed
            phase.profile = profiler.report
        return plain, traced

    def close(self) -> None:
        if self.solver is not None:
            self.solver.close()
        if self.executor is not None:
            self.executor.close()
        super().close()


class ServeRun(_Run):
    """A serving workload: one server fed from the calling thread."""

    def __init__(self, workload: Workload, seed: int) -> None:
        super().__init__(workload)
        self.rng = np.random.default_rng(seed)
        self.warm = [self._matrix() for _ in range(WARM_REQUESTS)]
        self.server = None

    def _matrix(self) -> np.ndarray:
        shape = SERVE_SHAPES[int(self.rng.integers(len(SERVE_SHAPES)))]
        return self.rng.standard_normal(shape)

    def setup(self):
        """Start the server; return the results of the warm requests."""
        self.server = SVDServer()
        futures = [self.server.submit(a) for a in self.warm]
        return [f.result(timeout=RESULT_TIMEOUT_S) for f in futures]

    def check_setup(self, warm) -> Check:
        return check_results(self.warm, warm)

    def _block(self, count: int, tracer, speed: float) -> tuple[Load, tuple]:
        """Send ``count`` requests and wait until every one has resolved.

        Open-loop arrivals come at ``rate * speed`` per second, where
        ``speed`` is the host's speed relative to the reference host: the
        server is then as busy as on the reference host, and scaled
        latencies compare across host states.
        """
        w = self.workload
        before = self.server.stats()

        def submit(matrix):
            # Looked up on every call, so a tracer's hook on it is used.
            return self.server.submit(matrix)

        if w.window:
            args = (submit, self._matrix, count, w.window)
            send = closed_loop
        else:
            # Poisson arrivals conditioned on their count: uniform times
            # over the block's span.
            span = count / (w.rate * speed)
            offsets = np.sort(self.rng.uniform(0.0, span, count))
            args = (submit, [self._matrix() for _ in range(count)], offsets)
            send = open_loop
        # The hooks stay in place until the block's last request resolves,
        # so the batches solved after the last submit are traced too.
        with tracer if tracer is not None else contextlib.nullcontext():
            load = send(*args)
            for fut in load.futures:
                if fut is not None:
                    fut.exception(timeout=RESULT_TIMEOUT_S)
        return load, (before, self.server.stats())

    def measure(self, seconds: float, tracer=None) -> tuple[Phase, Phase | None]:
        """``rate * seconds`` requests in blocks with a calibration between
        blocks; with a tracer, untraced and traced blocks alternate."""
        plain = Phase()
        traced = Phase() if tracer is not None else None
        count = max(SERVE_BLOCKS, math.ceil(self.workload.rate * seconds))
        before = calibrate()
        self.calibrations.append(before)
        for block in range(SERVE_BLOCKS):
            phase = traced if traced is not None and block % 2 else plain
            load, stats = self._block(
                count // SERVE_BLOCKS,
                tracer if phase is traced else None,
                CAL_REF_S / before,
            )
            after = calibrate()
            self.calibrations.append(after)
            factor = _scale(before, after)
            before = after
            ok = [
                i
                for i, fut in enumerate(load.futures)
                if fut is not None and fut.exception() is None
            ]
            check = check_results(
                [load.matrices[i] for i in ok],
                [load.futures[i].result() for i in ok],
            )
            phase.loads.append(load)
            phase.stats.append(stats)
            phase.ops += len(load.matrices)
            phase.attempted += len(load.matrices)
            phase.failed += len(load.matrices) - len(ok) + check.failed
            phase.done += len(ok) - check.failed
            phase.check.merge(check)
            wall = max(load.done[i] for i in ok) - load.start if ok else 0.0
            phase.record([load.done[i] - load.due[i] for i in ok], wall, factor)
        return plain, traced

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        super().close()


def make(name: str, seed: int):
    """The run object of workload ``name`` with inputs drawn from ``seed``."""
    workload = WORKLOADS[name]
    return (ServeRun if workload.serving else BatchRun)(workload, seed)
