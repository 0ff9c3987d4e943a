"""Parallel execution context.

A :class:`ParallelContext` is what kernels receive instead of a raw
thread count.  It bundles

* the configured worker count ``p`` (the paper sweeps 1..32 threads),
* ``cost``, a :class:`~repro.parallel.costmodel.CostModel` summing the
  run's work/span/sync profile, which kernels charge directly,
* chunking policy (degree-aware or oblivious — paper §3), and
* a real execution **backend** for coarse-grained task maps
  (per-component clustering, per-source traversal batches):

  - ``backend="serial"`` — sequential, deterministic (the default);
  - ``backend="thread"`` — a persistent ``ThreadPoolExecutor`` (useful
    when tasks release the GIL inside NumPy);
  - ``backend="process"`` — a persistent ``ProcessPoolExecutor``;
    :meth:`map_batches` hands graphs to workers zero-copy through
    ``multiprocessing.shared_memory`` (see :mod:`repro.parallel.shm`).

  Pools are created lazily, reused across calls, and released by
  :meth:`close` or the context-manager protocol.

Every :meth:`~ParallelContext.map` / :meth:`~ParallelContext.map_batches`
call runs through one path, :func:`repro.parallel.resilience.drive`,
whether or not a :class:`~repro.parallel.resilience.FaultPolicy` is
set; without one, as with ``max_retries=0``, the first failure
propagates (see that module).
Dispatch charges nothing to the cost model: the calling kernel records
its own decomposition's *modeled* phases, so Figure 2/3 style profiles
are the same whatever backend ran the tasks.

Kernels that take ``ctx=None`` construct a throwaway single-worker
context, so the instrumentation is always exercised.
"""

from __future__ import annotations

import pickle
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from repro import _memory
from repro.obs.tracer import current_tracer
from repro.parallel import chaos as _chaos
from repro.parallel import resilience as _resilience
from repro.parallel.costmodel import CostModel
from repro.parallel.resilience import FaultPolicy

T = TypeVar("T")
R = TypeVar("R")

DEFAULT_THREAD_COUNTS = (1, 2, 4, 8, 12, 16, 24, 32)
"""Thread counts swept by the paper's Figure 2 experiments."""

BACKENDS = ("serial", "thread", "process")


def _picklable_by_reference(fn: Callable) -> bool:
    """True if ``fn`` pickles by reference (a module-level function)."""
    try:
        return pickle.loads(pickle.dumps(fn)) is fn
    except Exception:
        return False


@dataclass
class PoolStats:
    """Backend pool gauges: what the execution substrate actually did.

    Accumulated per context across :meth:`ParallelContext.map` /
    :meth:`ParallelContext.map_batches` calls; exported by
    :class:`~repro.obs.runner.RunResult` and the CLI profile output.
    ``busy_seconds`` (summed task wall time) is only known when tracing
    is enabled — utilization is busy time over ``elapsed × workers``.
    ``shm_segments``/``shm_bytes`` count every segment the context
    made, for a dispatch or for a resident registry's admission.
    """

    map_calls: int = 0
    batch_calls: int = 0
    tasks_dispatched: int = 0
    batches_dispatched: int = 0
    lanes_dispatched: int = 0
    shm_segments: int = 0
    shm_bytes: int = 0
    busy_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    # Fault-tolerance counters (repro.parallel.resilience).  Without a
    # FaultPolicy (or with max_retries=0) only worker_crashes (counted,
    # then raised) and shm_fallbacks (segment allocation failed) move.
    retries: int = 0
    task_timeouts: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    degradations: int = 0
    shm_fallbacks: int = 0
    faults_injected: int = 0

    def utilization(self, n_workers: int) -> float:
        """Mean worker utilization over the traced dispatch calls."""
        cap = self.elapsed_seconds * max(1, n_workers)
        if cap <= 0.0 or self.busy_seconds <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / cap)

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "busy_seconds": round(self.busy_seconds, 6),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }


class _RunnerBase:
    """One degradation rung of the fault-tolerant dispatcher.

    Duck type consumed by :func:`repro.parallel.resilience.drive`:
    ``submit``/``run_inline`` execute one task (optionally carrying a
    planted chaos fault), ``disable_shm`` downgrades the graph handoff.
    Subclasses supply ``_task(i, fault)`` -> ``(trampoline, *args)``.
    ``submit`` runs on the context's persistent pool of the rung's mode
    (:meth:`ParallelContext._pool`), so pools stay warm across calls;
    the context alone builds and drops them.
    """

    def __init__(self, ctx: "ParallelContext", mode: str, traced: bool) -> None:
        self.ctx = ctx
        self.mode = mode
        self.traced = traced
        self.serial = mode == "serial"

    def submit(self, i: int, fault):
        return self.ctx._pool(self.mode).submit(*self._task(i, fault))

    def run_inline(self, i: int, fault):
        entry, *args = self._task(i, fault)
        return entry(*args)

    def disable_shm(self) -> bool:
        return False


def _fault_args(fault) -> tuple:
    """A planted fault as the plain data a trampoline takes."""
    return (None, 0.0) if fault is None else (fault.kind, fault.hang_seconds)


class _MapRunner(_RunnerBase):
    """Rung executing ``fn(item)`` tasks (ParallelContext.map)."""

    def __init__(self, ctx, mode, traced, fn, items) -> None:
        super().__init__(ctx, mode, traced)
        self.fn = fn
        self.items = items

    def _task(self, i: int, fault) -> tuple:
        return (
            _chaos.run_task, *_fault_args(fault), self.traced,
            self.fn, self.items[i],
        )


class _BatchRunner(_RunnerBase):
    """Rung executing ``worker(graph, batch, payload)`` tasks.

    On the process rung the graph crosses the boundary as a shared-
    memory spec; if segment allocation fails up front, or a worker
    reports :class:`~repro.errors.ShmAttachError`, the handoff degrades
    to pickling the graph per task (``disable_shm``).
    """

    def __init__(self, ctx, mode, traced, worker, graph, batches, payload):
        super().__init__(ctx, mode, traced)
        self.worker = worker
        self.graph = graph
        self.batches = batches
        self.payload = payload
        self.use_shm = False
        self.spec = None
        if mode == "process":
            try:
                self.spec = ctx.share_graph(graph).spec
                self.use_shm = True
            except Exception:
                # Allocation failed: fall back to pickled graph handoff.
                ctx.pool.shm_fallbacks += 1

    def _task(self, i: int, fault) -> tuple:
        kind, hang = _fault_args(fault)
        if self.use_shm:
            return (
                _chaos.run_shm_batch, kind, hang, self.traced,
                self.spec, self.worker, self.batches[i], self.payload,
            )
        return (
            _chaos.run_local_batch, kind, hang, self.traced,
            self.worker, self.graph, self.batches[i], self.payload,
        )

    def disable_shm(self) -> bool:
        was, self.use_shm = self.use_shm, False
        return was


class ParallelContext:
    """Execution context carrying worker count and instrumentation."""

    def __init__(
        self,
        n_workers: int = 1,
        *,
        degree_aware: bool = True,
        backend: Optional[str] = None,
        trace=None,
        fault_policy: Optional[FaultPolicy] = None,
        chaos=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if backend is None:
            backend = "serial"
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        self.n_workers = int(n_workers)
        self.degree_aware = bool(degree_aware)
        self.backend = backend
        self.cost = CostModel(self.n_workers, self.degree_aware)
        self.pool = PoolStats()
        # Read per dispatch by repro.parallel.resilience.policy_for;
        # never reassigned (obs.run arms a run without writing here).
        self.fault_policy = fault_policy
        self.chaos = chaos
        self._dispatch_seq = 0
        # ``trace=None`` means "follow the ambient tracer" — resolved at
        # use time so a context created before tracing was installed
        # still records.  An explicit tracer pins it.
        self._tracer = trace
        # mode ("thread" / "process") -> its persistent executor: the
        # lock makes concurrent first dispatches build one pool.
        self._pools: dict = {}
        self._pool_lock = threading.Lock()
        # id(graph) -> (graph, SharedGraph): every segment this context
        # made.  The strong graph reference keeps the id stable while the
        # segment lives; the lock makes concurrent first shares make one.
        self._shared_graphs: dict = {}
        self._share_lock = threading.Lock()

    @property
    def tracer(self):
        """The context's tracer: pinned if set, ambient otherwise."""
        return self._tracer if self._tracer is not None else current_tracer()

    @tracer.setter
    def tracer(self, value) -> None:
        self._tracer = value

    # ------------------------------------------------------------------
    # Execution backend plumbing
    # ------------------------------------------------------------------
    def _pool(self, mode: str):
        """The persistent ``mode`` executor, built once however many
        threads ask; :meth:`_drop_pool` is its only teardown."""
        with self._pool_lock:
            pool = self._pools.get(mode)
            if pool is not None:
                return pool
            if mode == "process":
                # The process stack loads at the first pool, and shm
                # before the fork so workers inherit it.  Workers get this
                # process's resource tracker, so a dead worker's private
                # tracker never unlinks a shared graph (bpo-38119), and
                # none of its freed heap.
                from concurrent.futures import ProcessPoolExecutor
                from multiprocessing import resource_tracker

                from repro.parallel import shm  # noqa: F401

                resource_tracker.ensure_running()
                _memory.release()
                pool = ProcessPoolExecutor(max_workers=self.n_workers)
            else:
                pool = ThreadPoolExecutor(max_workers=self.n_workers)
            self._pools[mode] = pool
            return pool

    def _drop_pool(self, mode: str, *, wait: bool = False) -> None:
        """Detach the ``mode`` pool, if any; the next submit builds anew.

        Without ``wait`` its workers are terminated and queued work is
        cancelled, and nothing raises: hung or dead workers must never
        block the coordinator (or a later ``close()``).  With ``wait``
        the pool is joined and a shutdown failure propagates.
        """
        with self._pool_lock:
            pool = self._pools.pop(mode, None)
        if pool is None:
            return
        if wait:
            pool.shutdown(wait=True)
            return
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def share_graph(self, graph):
        """The shared-memory segment of ``graph``, made on first use.

        The context owns every segment it makes: one per ``Graph``
        however many threads ask at once, closed by
        :meth:`discard_shared_graph` or :meth:`close`.
        """
        from repro.parallel import shm as _shm

        with self._share_lock:
            entry = self._shared_graphs.get(id(graph))
            if entry is None:
                entry = (graph, _shm.share_graph(graph))
                self._shared_graphs[id(graph)] = entry
                self.pool.shm_segments += 1
                self.pool.shm_bytes += entry[1].nbytes
        return entry[1]

    def discard_shared_graph(self, graph) -> None:
        """Close ``graph``'s segment now, if it has one: eviction must
        release ``/dev/shm`` promptly, not at exit."""
        with self._share_lock:
            entry = self._shared_graphs.pop(id(graph), None)
        if entry is not None:
            entry[1].close()

    def close(self) -> None:
        """Release the persistent pools and any shared graph segments.

        Never raises — safe to call from ``__exit__`` even after a
        broken pool or an interrupted dispatch.  Cleanup failures are
        reported as :class:`ResourceWarning`\\ s naming the resource
        instead of being swallowed.
        """
        problems: list[str] = []
        # getattr defaults guard a context whose __init__ raised before
        # the pool table existed.
        for mode in list(getattr(self, "_pools", ())):
            try:
                self._drop_pool(mode, wait=True)
            except Exception as exc:
                problems.append(f"{mode}_pool shutdown failed: {exc!r}")
        for _, shared in list(getattr(self, "_shared_graphs", {}).values()):
            try:
                shared.close()
            except Exception as exc:
                problems.append(
                    f"shared segment {shared.spec.shm_name!r} "
                    f"close failed: {exc!r}"
                )
        self._shared_graphs.clear()
        if problems:
            warnings.warn(
                "ParallelContext.close: " + "; ".join(problems),
                ResourceWarning,
                stacklevel=2,
            )

    def __enter__(self) -> "ParallelContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - gc timing dependent
        leaked = [f"{mode} pool" for mode in getattr(self, "_pools", ())]
        leaked.extend(
            f"shared segment {shared.spec.shm_name!r}"
            for _, shared in getattr(self, "_shared_graphs", {}).values()
        )
        if leaked:
            warnings.warn(
                f"unclosed ParallelContext(backend={self.backend!r}) "
                f"leaked {', '.join(leaked)}; call close() or use a "
                f"with-block",
                ResourceWarning,
                stacklevel=2,
            )
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Coarse-grained task execution
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item; results in item order.

        With a non-serial backend and more than one worker, items run on
        the context's persistent pool — threads by default; real
        processes when ``backend="process"`` *and* ``fn`` pickles by
        reference (closures fall back to the thread pool).  Otherwise
        execution is sequential and deterministic.  Nothing is charged
        to the cost model; the caller records its modeled phases.
        """
        items = list(items)
        self.pool.map_calls += 1
        self.pool.tasks_dispatched += len(items)
        return self._drive(
            "map",
            len(items),
            lambda mode, traced: _MapRunner(self, mode, traced, fn, items),
            self._map_ladder(fn, len(items)),
        )

    def map_batches(
        self,
        worker: Callable,
        graph,
        batches: Sequence[np.ndarray],
        *,
        payload=None,
    ) -> list:
        """Run ``worker(graph, batch, payload)`` per batch, in batch order.

        This is the traversal engine's execution primitive: ``batches``
        are coarse-grained source batches, and results always come back
        in submission order so reductions are backend-independent.

        * serial — in-process loop;
        * thread — the persistent thread pool;
        * process — the persistent process pool; ``graph`` crosses the
          boundary **once** as a shared-memory spec (workers attach the
          CSR arrays zero-copy, see :mod:`repro.parallel.shm`) and
          ``worker`` must be a module-level function.  ``payload``
          (e.g. an edge-activity mask) is pickled per task.

        Like :meth:`map`, it charges nothing to the cost model.
        """
        batches = [np.asarray(b, dtype=np.int64) for b in batches]
        if not batches:
            return []
        self.pool.batch_calls += 1
        self.pool.batches_dispatched += len(batches)
        self.pool.lanes_dispatched += int(sum(len(b) for b in batches))
        return self._drive(
            "map_batches",
            len(batches),
            lambda mode, traced: _BatchRunner(
                self, mode, traced, worker, graph, batches, payload
            ),
            self._batch_ladder(worker, len(batches)),
        )

    # ------------------------------------------------------------------
    # Dispatch through the fault-tolerant driver (repro.parallel.resilience)
    # ------------------------------------------------------------------
    def _map_ladder(self, fn: Callable, n_items: int) -> tuple[str, ...]:
        """Degradation rungs for a ``map`` call, best first.

        Serial when pooling would not help, thread instead of process
        for closures that do not pickle by reference.
        """
        if self.backend == "serial" or self.n_workers <= 1 or n_items <= 1:
            return ("serial",)
        if self.backend == "process" and _picklable_by_reference(fn):
            return ("process", "thread", "serial")
        return ("thread", "serial")

    def _batch_ladder(self, worker: Callable, n_batches: int) -> tuple[str, ...]:
        """Degradation rungs for a ``map_batches`` call, best first."""
        if self.backend == "process":
            if not _picklable_by_reference(worker):
                raise ValueError(
                    "process backend requires a module-level worker function"
                )
            return ("process", "thread", "serial")
        if self.backend == "thread" and self.n_workers > 1 and n_batches > 1:
            return ("thread", "serial")
        return ("serial",)

    def _drive(self, span_name, n_tasks, make_runner, ladder):
        """Run the driver, traced or not, grafting task sub-trees.

        Traced, every task records into a private sub-tracer whose tree
        is grafted back in submission order, so serial/thread/process
        emit identical span structures (only timings differ).
        """
        call_index = self._dispatch_seq
        self._dispatch_seq += 1
        tr = self.tracer
        traced = bool(tr)

        def run() -> list:
            return _resilience.drive(
                self, n_tasks, lambda mode: make_runner(mode, traced),
                ladder, call_index=call_index,
            )

        if not traced:
            return run()
        key = "index" if span_name == "map" else "batch_index"
        with tr.span(
            span_name, backend=self.backend,
            **{"n_tasks" if span_name == "map" else "n_batches": n_tasks},
            n_workers=self.n_workers,
        ) as sp:
            t0 = time.perf_counter()
            pairs = run()
            elapsed = time.perf_counter() - t0
            busy = 0.0
            for i, (_, span_dict) in enumerate(pairs):
                tr.graft(span_dict, **{key: i})
                busy += span_dict.get("duration_s", 0.0)
            self.pool.busy_seconds += busy
            self.pool.elapsed_seconds += elapsed
            sp.set(
                busy_seconds=round(busy, 6),
                utilization=round(
                    min(1.0, busy / max(1e-12, elapsed * self.n_workers)), 4
                ),
            )
            return [out for out, _ in pairs]


def ensure_context(ctx: Optional[ParallelContext]) -> ParallelContext:
    """Kernels call this so ``ctx=None`` means a fresh 1-worker context."""
    return ctx if ctx is not None else ParallelContext(1)
