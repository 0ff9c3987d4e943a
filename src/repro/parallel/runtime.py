"""Parallel execution context.

A :class:`ParallelContext` is what kernels receive instead of a raw
thread count.  It bundles

* the configured worker count ``p`` (the paper sweeps 1..32 threads),
* a :class:`~repro.parallel.costmodel.CostModel` accumulating the run's
  work/span/sync profile (phases, barriers, lock and CAS events),
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
  :meth:`close` / :meth:`reset` or the context-manager protocol.

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
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from repro import _memory
from repro.obs.tracer import current_tracer
from repro.parallel import chaos as _chaos
from repro.parallel import resilience as _resilience
from repro.parallel.costmodel import CostModel
from repro.parallel.partitioner import chunk_ranges, imbalance_factor
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


def phase_of_work(
    work: Optional[np.ndarray], n_workers: int, degree_aware: bool
) -> Optional[tuple[float, float]]:
    """``(work, max_item)`` of a phase whose items cost ``work`` each.

    ``None`` for a phase with no work (nothing is recorded).  The
    phase's ``max_item`` is the largest chunk's *excess* work
    granularity: with degree-aware chunking this is the largest single
    item; without it, the whole largest chunk may be the bottleneck,
    which the model captures via the imbalance factor.  Pure, so a
    worker can compute its phases and the coordinator record them.
    """
    if work is None or len(work) == 0:
        return None
    work = np.asarray(work, dtype=np.float64)
    total = float(work.sum())
    if total == 0.0:
        return None
    if degree_aware:
        # Degree-aware assignment also visits the adjacencies of
        # high-degree vertices in parallel (paper §3), so no single
        # vertex is an indivisible work item.
        return total, 1.0
    imb = imbalance_factor(work, chunk_ranges(work.shape[0], n_workers))
    # An oblivious schedule behaves as if its largest indivisible item
    # were the whole overloaded chunk's excess.
    top = float(work.max())
    return total, max(top, (imb - 1.0) * total / n_workers + top)


@dataclass
class PoolStats:
    """Backend pool gauges: what the execution substrate actually did.

    Accumulated per context across :meth:`ParallelContext.map` /
    :meth:`ParallelContext.map_batches` calls; exported by
    :class:`~repro.obs.runner.RunResult` and the CLI profile output.
    ``busy_seconds`` (summed task wall time) is only known when tracing
    is enabled — utilization is busy time over ``elapsed × workers``.
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
            "map_calls": self.map_calls,
            "batch_calls": self.batch_calls,
            "tasks_dispatched": self.tasks_dispatched,
            "batches_dispatched": self.batches_dispatched,
            "lanes_dispatched": self.lanes_dispatched,
            "shm_segments": self.shm_segments,
            "shm_bytes": self.shm_bytes,
            "busy_seconds": round(self.busy_seconds, 6),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "retries": self.retries,
            "task_timeouts": self.task_timeouts,
            "worker_crashes": self.worker_crashes,
            "pool_rebuilds": self.pool_rebuilds,
            "degradations": self.degradations,
            "shm_fallbacks": self.shm_fallbacks,
            "faults_injected": self.faults_injected,
        }

    def reset(self) -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, type(getattr(self, f))(0))


class _RunnerBase:
    """One degradation rung of the fault-tolerant dispatcher.

    Duck type consumed by :func:`repro.parallel.resilience.drive`:
    ``submit``/``run_inline`` execute one task (optionally carrying a
    planted chaos fault), ``rebuild``/``abandon`` manage the backing
    pool, ``disable_shm`` downgrades the graph handoff.  Subclasses
    supply ``_task(i, fault)`` -> ``(trampoline, *args)``.  Runners reuse
    the context's persistent pools, so pools stay warm across calls.
    """

    def __init__(self, ctx: "ParallelContext", mode: str, traced: bool) -> None:
        self.ctx = ctx
        self.mode = mode
        self.traced = traced
        self.serial = mode == "serial"

    def _pool(self):
        if self.mode == "process":
            return self.ctx._ensure_process_pool()
        return self.ctx._ensure_thread_pool()

    def submit(self, i: int, fault):
        return self._pool().submit(*self._task(i, fault))

    def run_inline(self, i: int, fault):
        entry, *args = self._task(i, fault)
        return entry(*args)

    def disable_shm(self) -> bool:
        return False

    def rebuild(self) -> None:
        """Drop the (suspect) pool; a fresh one is built at next submit."""
        self.abandon()

    def abandon(self) -> None:
        """Detach the pool without waiting: hung or dead workers must
        never block the coordinator (or a later ``close()``)."""
        ctx = self.ctx
        if self.mode == "process":
            pool, ctx._process_pool = ctx._process_pool, None
            if pool is not None:
                for proc in list(
                    (getattr(pool, "_processes", None) or {}).values()
                ):
                    try:
                        proc.terminate()
                    except Exception:
                        pass
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:
                    pass
        elif self.mode == "thread":
            pool, ctx._thread_pool = ctx._thread_pool, None
            if pool is not None:
                try:
                    pool.shutdown(wait=False, cancel_futures=True)
                except Exception:
                    pass


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
                self.spec = ctx._shared_graph(graph).spec
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
        self.cost = CostModel()
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
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._process_pool: Optional[ProcessPoolExecutor] = None
        # id(graph) -> (graph, SharedGraph); the strong graph reference
        # keeps the id stable while the shared segment is cached.
        self._shared_graphs: dict = {}
        # Externally-owned segments (graph-service registry): reused by
        # map_batches like the cached ones, but never closed here —
        # their lifecycle belongs to whoever adopted them in.
        self._adopted_shared: dict = {}

    @property
    def tracer(self):
        """The context's tracer: pinned if set, ambient otherwise."""
        return self._tracer if self._tracer is not None else current_tracer()

    @tracer.setter
    def tracer(self, value) -> None:
        self._tracer = value

    # ------------------------------------------------------------------
    # Instrumentation passthroughs
    # ------------------------------------------------------------------
    def phase(
        self, work: float, max_item: float = 1.0, *, flag_sync: bool = False
    ) -> None:
        """Record one barrier- (or flag-) separated parallel phase."""
        self.cost.phase(work, max_item, flag_sync=flag_sync)

    def serial(self, work: float) -> None:
        self.cost.serial(work)

    def lock(self, count: int = 1) -> None:
        self.cost.lock(count)

    def cas(self, count: int = 1) -> None:
        self.cost.cas(count)

    @contextmanager
    def region(self):
        """A parallel region (charged a worker wake-up in the model)."""
        self.cost.region()
        yield self

    def record_phase_from_work(self, work: Optional[np.ndarray]) -> None:
        """Record a phase whose items have per-item ``work`` costs
        (see :func:`phase_of_work`)."""
        ph = phase_of_work(work, self.n_workers, self.degree_aware)
        if ph is not None:
            self.phase(*ph)

    # ------------------------------------------------------------------
    # Execution backend plumbing
    # ------------------------------------------------------------------
    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(max_workers=self.n_workers)
        return self._thread_pool

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        if self._process_pool is None:
            # Workers fork from this process: give them its resource
            # tracker, so a dead worker's private tracker never unlinks a
            # shared graph (bpo-38119), and none of its freed heap.
            resource_tracker.ensure_running()
            _memory.release()
            self._process_pool = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._process_pool

    def _shared_graph(self, graph):
        """Shared-memory handle for ``graph``, cached per context."""
        from repro.parallel import shm as _shm

        adopted = self._adopted_shared.get(id(graph))
        if adopted is not None and adopted[0] is graph:
            return adopted[1]
        entry = self._shared_graphs.get(id(graph))
        if entry is None or entry[0] is not graph:
            entry = (graph, _shm.share_graph(graph))
            self._shared_graphs[id(graph)] = entry
            self.pool.shm_segments += 1
            self.pool.shm_bytes += entry[1].nbytes
        return entry[1]

    def adopt_shared_graph(self, graph, shared) -> None:
        """Register an externally-owned shared segment for ``graph``.

        Long-lived services share a graph's CSR arrays once (in their
        resident registry) and let every dispatch on this context reuse
        that segment — ``map_batches`` will ship ``shared.spec`` instead
        of re-sharing, and :meth:`close` leaves the segment alone.  The
        caller owns the segment's lifecycle and must
        :meth:`discard_shared_graph` before closing it.
        """
        if shared.shm is None:
            raise ValueError("cannot adopt a closed shared segment")
        self._adopted_shared[id(graph)] = (graph, shared)

    def discard_shared_graph(self, graph) -> None:
        """Forget an adopted (or cached) segment for ``graph``.

        Adopted segments are merely unregistered (the owner closes
        them); context-owned cached segments are closed immediately —
        eviction must release ``/dev/shm`` promptly, not at exit.
        """
        self._adopted_shared.pop(id(graph), None)
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
        # the pool attributes existed.
        for attr in ("_thread_pool", "_process_pool"):
            pool = getattr(self, attr, None)
            if pool is None:
                continue
            setattr(self, attr, None)
            try:
                pool.shutdown(wait=True)
            except Exception as exc:
                problems.append(f"{attr.lstrip('_')} shutdown failed: {exc!r}")
        for _, shared in list(getattr(self, "_shared_graphs", {}).values()):
            try:
                shared.close()
            except Exception as exc:
                problems.append(
                    f"shared segment {shared.spec.shm_name!r} "
                    f"close failed: {exc!r}"
                )
        self._shared_graphs.clear()
        getattr(self, "_adopted_shared", {}).clear()
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
        leaked: list[str] = []
        if getattr(self, "_thread_pool", None) is not None:
            leaked.append("thread pool")
        if getattr(self, "_process_pool", None) is not None:
            leaked.append("process pool")
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

    # ------------------------------------------------------------------
    def modeled_time(self, p: Optional[int] = None) -> float:
        """Modeled execution time at ``p`` (default: configured) workers."""
        return self.cost.modeled_time(p if p is not None else self.n_workers)

    def speedup(self, p: Optional[int] = None) -> float:
        return self.cost.speedup(p if p is not None else self.n_workers)

    def reset(self) -> None:
        """Clear instrumentation and release pools/shared segments."""
        self.cost.reset()
        self.pool.reset()
        self.close()


def ensure_context(ctx: Optional[ParallelContext]) -> ParallelContext:
    """Kernels call this so ``ctx=None`` means a fresh 1-worker context."""
    return ctx if ctx is not None else ParallelContext(1)
