"""Deterministic chaos injection for the parallel runtime.

Resilience code that is only exercised by real production failures is
untested code.  This module plants *seeded, reproducible* faults into
the fault-tolerant dispatch path (:mod:`repro.parallel.resilience`) so
every recovery mechanism — retry, pool rebuild, shared-memory fallback,
backend degradation — runs in ordinary tests:

* ``raise`` — the task raises :class:`~repro.errors.TransientWorkerError`;
* ``hang``  — the task sleeps past the policy's task timeout before
  completing normally;
* ``exit``  — the worker dies hard: ``os._exit`` in a process-pool
  worker (breaking the pool), or a raised
  :class:`~repro.errors.WorkerCrashError` on in-process backends where
  a real exit would kill the interpreter;
* ``shm``   — the worker's shared-memory graph attach fails with
  :class:`~repro.errors.ShmAttachError`, forcing the pickle-handoff
  fallback.

Faults are *planned by the coordinator* and shipped to workers with
each task, so no cross-process state is needed and a plan replays
identically on every backend.  Two planners are provided:

* :class:`ChaosPlan` — explicit faults at chosen ``(call, task)``
  indices, each firing a bounded number of times (so retries succeed);
* :class:`ChaosMonkey` — a seeded pseudo-random planter for fuzzing
  (``repro check --chaos``), which only ever faults a task's *first*
  attempt, keeping every run completable.

Install either on a context via ``ParallelContext(chaos=...)`` or for
one run via ``repro.obs.run(chaos=...)``, beside a
:class:`~repro.parallel.resilience.FaultPolicy` (without one, or with
``max_retries=0``, the first planted fault propagates); the contract
under test is that results with chaos enabled are **bit-identical** to
the fault-free run.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ShmAttachError, TransientWorkerError, WorkerCrashError
from repro.obs.tracer import Tracer, use_tracer

__all__ = [
    "FAULT_KINDS",
    "Fault",
    "ChaosPlan",
    "ChaosMonkey",
    "run_coordinator_killed",
    "files_appeared",
]

FAULT_KINDS = ("raise", "hang", "exit", "shm")


@dataclass(frozen=True)
class Fault:
    """One planned fault: what to inject and where.

    ``task_index`` addresses a task within a dispatch call;
    ``call_index`` pins the fault to the n-th ``map``/``map_batches``
    call on the context (``None`` = any call).  ``times`` bounds how
    often the fault fires in total, so retried tasks eventually
    succeed.  ``hang_seconds`` only applies to ``kind="hang"``.
    """

    kind: str
    task_index: int = 0
    call_index: Optional[int] = None
    times: int = 1
    hang_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")


class ChaosPlan:
    """Explicit fault plan with parent-side fired-count bookkeeping.

    The coordinator consults :meth:`fault_for` before dispatching each
    task; because the fired counts live in the parent, a fault fires a
    deterministic number of times even when it kills the worker that
    would otherwise have remembered it.
    """

    def __init__(self, faults: Sequence[Fault]) -> None:
        self.faults = tuple(faults)
        self._fired = [0] * len(self.faults)

    def fault_for(
        self, call_index: int, task_index: int, attempt: int
    ) -> Optional[Fault]:
        """The fault to inject for this dispatch, or None."""
        for j, f in enumerate(self.faults):
            if f.task_index != task_index:
                continue
            if f.call_index is not None and f.call_index != call_index:
                continue
            if self._fired[j] >= f.times:
                continue
            self._fired[j] += 1
            return f
        return None

    @property
    def n_fired(self) -> int:
        return sum(self._fired)

    def reset(self) -> None:
        self._fired = [0] * len(self.faults)


class ChaosMonkey:
    """Seeded pseudo-random fault planter for fuzz drivers.

    Fires on roughly ``rate`` of first-attempt tasks, choosing a kind
    from ``kinds``; the decision is a pure hash of
    ``(seed, call_index, task_index)`` so a failing fuzz run replays
    exactly.  Retries (``attempt > 0``) are never faulted, so every
    run completes under any policy with ``max_retries >= 1``.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        rate: float = 0.05,
        kinds: Sequence[str] = ("raise", "exit"),
        hang_seconds: float = 0.25,
    ) -> None:
        for k in kinds:
            if k not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {k!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.seed = int(seed)
        self.rate = float(rate)
        self.kinds = tuple(kinds)
        self.hang_seconds = float(hang_seconds)
        self.n_fired = 0

    def fault_for(
        self, call_index: int, task_index: int, attempt: int
    ) -> Optional[Fault]:
        if attempt > 0 or not self.kinds:
            return None
        h = zlib.crc32(f"{self.seed}:{call_index}:{task_index}".encode())
        if (h & 0xFFFF) / 65536.0 >= self.rate:
            return None
        kind = self.kinds[(h >> 16) % len(self.kinds)]
        self.n_fired += 1
        return Fault(
            kind, task_index=task_index, hang_seconds=self.hang_seconds
        )


# ---------------------------------------------------------------------------
# Process-level chaos: killing the *coordinator*.
#
# The in-process fault kinds above exercise worker death; the durability
# layer (DESIGN §13) claims something stronger — that the coordinator
# itself can die at any instant and a restart resumes bit-identically
# from its last durable checkpoint.  That claim can only be tested by
# actually SIGKILLing a real coordinator process, so the driver below
# spawns one as a subprocess, polls an observable trigger (typically:
# checkpoint files appearing on disk), and delivers an un-catchable
# SIGKILL the moment it fires.
# ---------------------------------------------------------------------------
def files_appeared(directory, pattern: str = "*", count: int = 1):
    """Trigger predicate: ``pattern``-matching files under ``directory``.

    Returns a zero-argument callable for
    :func:`run_coordinator_killed` that fires once at least ``count``
    matching files exist — the natural "the victim has made durable
    progress" signal for checkpoint-directory layouts.
    """
    from pathlib import Path

    root = Path(directory)

    def _trigger() -> bool:
        return root.is_dir() and len(list(root.glob(pattern))) >= count

    return _trigger


def run_coordinator_killed(
    argv: Sequence[str],
    trigger,
    *,
    timeout: float = 120.0,
    poll_interval: float = 0.02,
    env: Optional[dict] = None,
    cwd: Optional[str] = None,
) -> dict:
    """Spawn ``argv`` and SIGKILL it when ``trigger()`` first returns True.

    Returns ``{"outcome": "killed"}`` when the kill landed, or
    ``{"outcome": "exited", "returncode": rc}`` when the process
    finished before the trigger fired (the race the caller must treat
    as "work too fast to interrupt", not a failure).  Raises
    ``TimeoutError`` if neither happens within ``timeout`` seconds.

    SIGKILL (not SIGTERM) on purpose: the durability contract is about
    un-handleable death — no atexit hooks, no flush-on-signal.  Output
    is discarded; the caller asserts on the durable artifacts the
    victim left behind.
    """
    import signal
    import subprocess

    proc = subprocess.Popen(
        list(argv),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=cwd,
    )
    deadline = time.monotonic() + timeout
    try:
        while True:
            rc = proc.poll()
            if rc is not None:
                return {"outcome": "exited", "returncode": rc}
            if trigger():
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30.0)
                return {"outcome": "killed"}
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"coordinator {argv[0]!r} neither exited nor tripped "
                    f"the kill trigger within {timeout}s"
                )
            time.sleep(poll_interval)
    finally:
        if proc.poll() is None:  # never leak the victim
            proc.kill()
            proc.wait(timeout=30.0)


# ---------------------------------------------------------------------------
# Worker-side application.  Module-level functions so the process
# backend can pickle them by reference; the planned fault travels with
# the task as plain data (kind + hang_seconds).
# ---------------------------------------------------------------------------
def _apply(kind: Optional[str], hang_seconds: float) -> None:
    """Execute one planted fault inside the worker (no-op for None)."""
    if kind is None:
        return
    if kind == "raise":
        raise TransientWorkerError("chaos: injected transient failure")
    if kind == "hang":
        time.sleep(hang_seconds)
        return
    if kind == "exit":
        import multiprocessing

        if multiprocessing.parent_process() is not None:
            os._exit(3)  # hard worker death: breaks the process pool
        raise WorkerCrashError(
            "chaos: simulated hard worker exit (in-process backend)"
        )
    if kind == "shm":
        raise ShmAttachError("chaos: injected shm attach failure")
    raise ValueError(f"unknown fault kind {kind!r}")


def _traced(name: str, attrs: dict, fn, *args):
    """Run ``fn(*args)`` under a fresh sub-tracer.

    In-process, in a pool thread or in a pool worker process alike, the
    call's spans land in a private tracer whose serialized tree travels
    back with the result as ``(result, span_dict)``, so the coordinator
    grafts it in submission order and the span structure is
    backend-independent.
    """
    sub = Tracer()
    with use_tracer(sub):
        sp = sub.begin(name, **attrs)
        try:
            out = fn(*args)
        finally:
            sub.end(sp)
    return out, sp.to_dict()


def run_task(kind, hang_seconds, traced, fn, item):
    """Map-task trampoline: apply any planted fault, then run ``fn``."""
    _apply(kind, hang_seconds)
    if traced:
        return _traced("task", {}, fn, item)
    return fn(item)


def run_local_batch(kind, hang_seconds, traced, worker, graph, batch, payload):
    """Batch trampoline for serial/thread backends (graph in-process)."""
    _apply(kind, hang_seconds)
    if traced:
        return _traced(
            "batch", {"lanes": int(len(batch))}, worker, graph, batch, payload
        )
    return worker(graph, batch, payload)


def run_shm_batch(kind, hang_seconds, traced, spec, worker, batch, payload):
    """Batch trampoline for the process backend's shared-memory handoff.

    The ``shm`` fault fires *before* the attach, modelling an attach
    failure the coordinator answers with the pickle fallback.
    """
    from repro.parallel import shm as _shm

    _apply(kind, hang_seconds)
    return run_local_batch(
        None, 0.0, traced, worker, _shm.attach_graph(spec), batch, payload
    )
