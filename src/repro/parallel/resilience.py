"""Fault-tolerant dispatch for the parallel runtime.

Every :class:`~repro.parallel.runtime.ParallelContext` ``map`` /
``map_batches`` call runs through :func:`drive`, under the
:class:`FaultPolicy` :func:`policy_for` resolves (no policy is
``FaultPolicy(max_retries=0)``).  One rule covers every failure:

* a worker crash (``BrokenProcessPool`` or an in-band
  :class:`~repro.errors.WorkerCrashError`), a task timeout or a
  transient error (:class:`~repro.errors.TransientWorkerError` and
  subclasses) spends one retry of each task it lost, after a seeded
  exponential backoff; a crashed or hung pool is rebuilt and only the
  tasks *without* results are re-submitted;
* any exception from a submit — the pool is broken, shut down or
  cannot be built at all — is a failure of the pool: it is rebuilt
  and the unsubmitted tasks go again, spending no retry;
* one dispatch rebuilds its pool at most ``max_retries`` times, then
  steps down the ladder process → thread → serial, and the
  shared-memory graph handoff falls back to per-task pickling on
  attach failures (:class:`~repro.errors.ShmAttachError`);
* with ``max_retries == 0`` nothing is retried, rebuilt or degraded:
  the first failure propagates, a dead worker raises
  :class:`~repro.errors.WorkerCrashError` and its pool is dropped
  (the next dispatch builds a fresh one).

``task_timeout`` detects a hung worker; ``phase_deadline`` bounds the
whole dispatch call and is terminal.  An interrupt cancels the
outstanding futures.  Every fault, retry, rebuild, fallback and
degradation is counted on the context's
:class:`~repro.parallel.runtime.PoolStats` and emitted as a
``fault.*`` tracer event span, so ``RunResult``/``repro profile``
output tells the user exactly what the runtime survived.

The driver is deliberately backend-agnostic: the runtime hands it a
``make_runner(mode)`` factory producing small runner objects (submit /
run_inline / disable_shm) per degradation rung, and the context's
``_drop_pool(mode)`` is the one way it tears a pool down.
"""

from __future__ import annotations

import contextlib
import contextvars
import random
import time
from concurrent.futures import BrokenExecutor, CancelledError
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import (
    BackendUnavailable,
    PhaseDeadlineExceeded,
    RetryExhausted,
    ShmAttachError,
    TaskTimeout,
    TransientWorkerError,
    WorkerCrashError,
)

__all__ = ["FaultPolicy", "drive", "policy_for", "run_policy"]

# Backoff between retry rounds: ``_BACKOFF_BASE * _BACKOFF_FACTOR **
# round`` seconds, capped at ``_BACKOFF_MAX``, times a symmetric
# ``±_JITTER`` drawn from ``random.Random(call_index & 0xFFFF)``.
_BACKOFF_BASE = 0.01
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 0.25
_JITTER = 0.25


@dataclass(frozen=True)
class FaultPolicy:
    """Resilience knobs for one execution context.

    ``task_timeout`` / ``phase_deadline`` are seconds (``None`` =
    unbounded); timeouts are enforced on pooled backends only — the
    serial rung cannot preempt its own thread.  ``max_retries`` is both
    the per-task retry budget and the per-dispatch pool-rebuild budget
    before the ladder steps down; 0 turns all recovery off (see the
    module docstring).
    """

    task_timeout: Optional[float] = None
    phase_deadline: Optional[float] = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        for t in (self.task_timeout, self.phase_deadline):
            if t is not None and t <= 0:
                raise ValueError("timeouts must be positive (or None)")

    def is_transient(self, exc: BaseException) -> bool:
        """True if ``exc`` should be retried rather than propagated."""
        return isinstance(exc, TransientWorkerError)

    def backoff_seconds(self, retry_round: int, rng: random.Random) -> float:
        """Exponential backoff with symmetric seeded jitter."""
        base = min(_BACKOFF_MAX, _BACKOFF_BASE * _BACKOFF_FACTOR ** retry_round)
        return base * (1.0 + _JITTER * (2.0 * rng.random() - 1.0))


# What a context without a policy runs under, so "no policy" and "zero
# retries" are one behaviour: the first failure propagates.
_NO_POLICY = FaultPolicy(max_retries=0)

# (ctx, fault_policy, chaos) of the run in progress on this thread: a
# ContextVar, so concurrent runs on one shared context never see each
# other's policy and the context itself is never written.
_RUN: contextvars.ContextVar = contextvars.ContextVar("repro_run", default=None)


@contextlib.contextmanager
def run_policy(ctx, fault_policy: Optional[FaultPolicy] = None, chaos=None):
    """Dispatches on ``ctx`` from this thread run under ``fault_policy``
    / ``chaos`` for the dynamic extent (``None`` keeps the context's).

    This is how :func:`repro.obs.run` arms one run on a caller-owned,
    possibly shared, context without assigning to it.
    """
    if fault_policy is None and chaos is None:
        yield
        return
    token = _RUN.set((ctx, fault_policy, chaos))
    try:
        yield
    finally:
        _RUN.reset(token)


def _resolve(ctx) -> tuple[FaultPolicy, object]:
    """The ``(policy, chaos)`` a dispatch on ``ctx`` runs under."""
    policy = getattr(ctx, "fault_policy", None)
    chaos = getattr(ctx, "chaos", None)
    run = _RUN.get()
    if run is not None and run[0] is ctx:
        policy = run[1] if run[1] is not None else policy
        chaos = run[2] if run[2] is not None else chaos
    return (_NO_POLICY if policy is None else policy), chaos


def policy_for(ctx) -> FaultPolicy:
    """The :class:`FaultPolicy` a dispatch on ``ctx`` (or None) runs
    under: this thread's :func:`run_policy`, else the context's own,
    else the no-policy constant."""
    return _resolve(ctx)[0]


def drive(
    ctx,
    n_tasks: int,
    make_runner: Callable[[str], object],
    ladder: Sequence[str],
    *,
    call_index: int,
) -> list:
    """Run ``n_tasks`` resiliently; results in task-index order.

    ``make_runner(mode)`` builds one degradation rung (see the runner
    classes in :mod:`repro.parallel.runtime`); ``ladder`` orders the
    rungs to try.  The context supplies the tracer for ``fault.*``
    event spans and the :class:`~repro.parallel.runtime.PoolStats`
    counters; the :class:`FaultPolicy` and optional chaos planter are
    resolved as :func:`policy_for` describes.

    On *any* exception — terminal fault, programming error in a task,
    ``KeyboardInterrupt`` — outstanding futures are cancelled and, if
    the pool is suspect (hung, broken or failing at submit) or the
    exception is an interrupt, the pool is dropped without waiting so
    ``close()`` never blocks on a wedged worker.  No future, pool or
    segment outlives the call untracked.
    """
    policy, chaos = _resolve(ctx)
    recover = policy.max_retries > 0  # else nothing retries/rebuilds/degrades
    stats = ctx.pool
    tracer = ctx.tracer
    rng = None  # backoff jitter source, seeded at its first use
    t0 = time.monotonic()
    deadline = (
        t0 + policy.phase_deadline if policy.phase_deadline is not None else None
    )

    results: list = [None] * n_tasks
    done = [False] * n_tasks
    attempts = [0] * n_tasks

    def event(name: str, **attrs) -> None:
        if tracer:
            tracer.end(tracer.begin(name, **attrs))

    rung = 0
    runner = make_runner(ladder[0])
    rebuilds = 0

    def planted_fault(i: int):
        if chaos is None:
            return None
        f = chaos.fault_for(call_index, i, attempts[i])
        if f is not None:
            stats.faults_injected += 1
            event(
                "fault.inject", kind=f.kind, task=i, attempt=attempts[i]
            )
        return f

    def check_deadline() -> float | None:
        """Remaining phase budget; raises once it is spent."""
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise PhaseDeadlineExceeded(
                f"dispatch exceeded phase deadline of "
                f"{policy.phase_deadline}s with "
                f"{done.count(False)} of {n_tasks} task(s) unfinished"
            )
        return remaining

    def note_retry(i: int, exc: BaseException, *, kind: str) -> None:
        """Book one transient failure; raises when the budget is spent."""
        if attempts[i] >= policy.max_retries:
            if not recover:
                raise exc  # nothing was retried: the failure itself
            raise RetryExhausted(
                f"task {i} still failing after {attempts[i] + 1} "
                f"attempt(s) on backend {ladder[rung]!r}: {exc!r}"
            ) from exc
        attempts[i] += 1
        stats.retries += 1
        event("fault.retry", task=i, attempt=attempts[i], kind=kind)

    pool_suspect = False  # a worker is hung/dead: rebuild before reuse
    retry_round = 0
    outstanding: dict[int, object] = {}
    try:
        while True:
            pending = [i for i in range(n_tasks) if not done[i]]
            if not pending:
                break
            check_deadline()

            if getattr(runner, "serial", False):
                # Inline rung: no preemption, so timeouts do not apply;
                # transient faults (including simulated crashes) retry.
                for i in pending:
                    fault = planted_fault(i)
                    try:
                        results[i] = runner.run_inline(i, fault)
                        done[i] = True
                    except Exception as exc:
                        if not policy.is_transient(exc):
                            raise
                        note_retry(i, exc, kind=type(exc).__name__)
            else:
                crashed = False
                outstanding = {}
                for i in pending:
                    fault = planted_fault(i)
                    try:
                        outstanding[i] = runner.submit(i, fault)
                    except Exception as exc:
                        # The pool is broken, shut down or cannot be
                        # built; collect what was submitted, then
                        # rebuild below.
                        crashed = True
                        pool_suspect = True
                        if recover:
                            break
                        if isinstance(exc, BrokenExecutor):
                            stats.worker_crashes += 1
                            event("fault.crash", backend=ladder[rung])
                            raise WorkerCrashError(
                                f"worker pool broken at submit on backend "
                                f"{ladder[rung]!r}: {exc!r}"
                            ) from exc
                        raise
                for i in list(outstanding):
                    fut = outstanding.pop(i)
                    timeout = policy.task_timeout
                    remaining = check_deadline()
                    if remaining is not None:
                        timeout = (
                            remaining if timeout is None
                            else min(timeout, remaining)
                        )
                    try:
                        out = fut.result(timeout=timeout)
                    except _FutureTimeout as exc:
                        fut.cancel()
                        pool_suspect = True
                        if (
                            deadline is not None
                            and time.monotonic() >= deadline
                        ):
                            check_deadline()  # raises PhaseDeadlineExceeded
                        stats.task_timeouts += 1
                        event(
                            "fault.timeout", task=i, attempt=attempts[i],
                            timeout_s=policy.task_timeout,
                        )
                        if attempts[i] >= policy.max_retries:
                            raise TaskTimeout(
                                f"task {i} exceeded its "
                                f"{policy.task_timeout}s deadline on "
                                f"backend {ladder[rung]!r}"
                            ) from exc
                        attempts[i] += 1
                        stats.retries += 1
                    except (BrokenExecutor, CancelledError) as exc:
                        # The pool broke; this and the remaining futures
                        # of the pass are lost, completed ones are kept.
                        pool_suspect = True
                        if not crashed:
                            crashed = True
                            stats.worker_crashes += 1
                            event("fault.crash", backend=ladder[rung])
                        if not recover:
                            raise WorkerCrashError(
                                f"worker crashed on backend "
                                f"{ladder[rung]!r}: {exc!r}"
                            ) from exc
                        note_retry(i, exc, kind="worker_crash")
                    except Exception as exc:
                        if not policy.is_transient(exc):
                            raise
                        if isinstance(exc, WorkerCrashError):
                            stats.worker_crashes += 1
                            event("fault.crash", backend=ladder[rung])
                        if isinstance(exc, ShmAttachError):
                            if runner.disable_shm():
                                stats.shm_fallbacks += 1
                                event("fault.shm_fallback", task=i)
                        note_retry(i, exc, kind=type(exc).__name__)
                    else:
                        results[i] = out
                        done[i] = True

                if pool_suspect:
                    # The next submit builds a fresh pool; past the
                    # rebuild budget the next rung takes over instead.
                    ctx._drop_pool(ladder[rung])
                    if rebuilds < policy.max_retries:
                        rebuilds += 1
                        stats.pool_rebuilds += 1
                        event("fault.rebuild", backend=ladder[rung])
                    elif recover and rung + 1 < len(ladder):
                        # Fresh retry budgets on the new rung.
                        stats.degradations += 1
                        rung += 1
                        runner = make_runner(ladder[rung])
                        rebuilds = 0
                        for i in range(n_tasks):
                            if not done[i]:
                                attempts[i] = 0
                        event(
                            "fault.degrade", to=ladder[rung],
                            reason="rebuild_budget",
                        )
                    else:
                        raise BackendUnavailable(
                            f"backend {ladder[rung]!r} still broken "
                            f"after {rebuilds} pool rebuild(s)"
                        )
                    pool_suspect = False

            if any(not d for d in done):
                if rng is None:
                    rng = random.Random(call_index & 0xFFFF)
                delay = policy.backoff_seconds(retry_round, rng)
                retry_round += 1
                if delay > 0.0:
                    if deadline is not None:
                        delay = min(delay, max(0.0, deadline - time.monotonic()))
                    time.sleep(delay)
    except BaseException as exc:
        for fut in outstanding.values():
            try:
                fut.cancel()
            except Exception:
                pass
        if pool_suspect or isinstance(exc, (KeyboardInterrupt, SystemExit)):
            ctx._drop_pool(ladder[rung])
        raise
    return results
