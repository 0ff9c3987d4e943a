"""``repro.obs.run`` — one dispatcher, one result envelope.

The paper's evaluation needs every algorithm measured the same way;
``run()`` is that single front door::

    res = repro.obs.run("betweenness", g, backend="thread", n_workers=4)
    res.value               # the algorithm's payload (scores, labels, ...)
    res.trace               # root Span of the recorded span tree
    res.cost_model          # the PRAM work/span profile (Figure 2/3 input)
    res.pool                # backend pool gauges (tasks, batches, shm bytes)
    res.elapsed_seconds     # wall clock
    res.save("out.json")    # the JSON document `repro profile` emits

Dispatch accepts a registry name (see :mod:`repro.obs.api`) or any
callable following the canonical ``fn(graph, *, ctx=None, trace=None,
...)`` surface.  Tracing is ON by default here — ``run`` exists to
measure — while direct entrypoint calls stay untraced by default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.obs.api import get_algorithm, resolve_tracer
from repro.obs.sinks import flame_summary, write_json
from repro.obs.tracer import NULL_TRACER, Span, Tracer

__all__ = ["RunResult", "run"]


@dataclass
class RunResult:
    """Uniform envelope: payload + observability artifacts of one run."""

    algorithm: str
    value: Any
    trace: Optional[Span]
    cost_model: Any  # repro.parallel.costmodel.CostModel
    sync: Any  # repro.parallel.sync.SyncCounters
    pool: Any  # repro.parallel.runtime.PoolStats
    backend: str
    n_workers: int
    elapsed_seconds: float
    extras: dict = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.algorithm}: {self.elapsed_seconds:.3f}s "
            f"on backend={self.backend} p={self.n_workers}"
        )

    def flame(self, **kw) -> str:
        """Human-readable flame view of the recorded span tree."""
        if self.trace is None:
            return "(tracing disabled)"
        return flame_summary(self.trace, **kw)

    def to_dict(self) -> dict:
        """JSON-ready record: trace tree + cost/sync/pool profiles."""
        return {
            "algorithm": self.algorithm,
            "backend": self.backend,
            "n_workers": self.n_workers,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "trace": None if self.trace is None else self.trace.to_dict(),
            "cost_model": self.cost_model.summary(),
            "sync": self.sync.as_dict(),
            "pool": self.pool.as_dict(),
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Persist :meth:`to_dict` as a JSON document (atomic replace)."""
        from repro.durable import write_json_atomic

        path = Path(path)
        write_json_atomic(path, self.to_dict(), indent=2, sort_keys=True)
        return path


def run(
    algorithm: Union[str, Callable],
    graph,
    *operands,
    ctx=None,
    backend: Optional[str] = None,
    n_workers: int = 1,
    trace: Union[bool, Tracer, None] = True,
    fault_policy=None,
    chaos=None,
    **kwargs,
) -> RunResult:
    """Execute an algorithm under full observability.

    ``algorithm`` is a registry name (``"pbd"``, ``"betweenness"``, ...)
    or a callable with the canonical keyword surface.  A
    :class:`~repro.parallel.runtime.ParallelContext` is created from
    ``backend``/``n_workers`` unless an explicit ``ctx`` is passed (the
    caller then owns its lifecycle).  ``trace`` defaults to ``True``:
    a fresh tracer records the run and its root lands in the result.

    ``fault_policy`` (a :class:`~repro.parallel.resilience.FaultPolicy`)
    and ``chaos`` (a planner from :mod:`repro.parallel.chaos`) override
    the context's own for this run's dispatches only, and are never
    written into ``ctx`` (concurrent runs on one context stay apart).
    """
    from repro.parallel.resilience import run_policy
    from repro.parallel.runtime import ParallelContext

    if isinstance(algorithm, str):
        fn = get_algorithm(algorithm)
        name = algorithm
    else:
        fn = algorithm
        name = getattr(fn, "__algorithm__", getattr(fn, "__name__", "algorithm"))

    tracer = resolve_tracer(trace)
    own_ctx = ctx is None
    if own_ctx:
        ctx = ParallelContext(n_workers, backend=backend, trace=tracer)
    try:
        with run_policy(ctx, fault_policy, chaos):
            t0 = time.perf_counter()
            value = fn(graph, *operands, ctx=ctx, trace=tracer, **kwargs)
            elapsed = time.perf_counter() - t0
        root = tracer.finish() if tracer is not NULL_TRACER and tracer else None
        return RunResult(
            algorithm=name,
            value=value,
            trace=root,
            cost_model=ctx.cost,
            sync=ctx.sync,
            pool=ctx.pool,
            backend=ctx.backend,
            n_workers=ctx.n_workers,
            elapsed_seconds=elapsed,
        )
    finally:
        if own_ctx:
            ctx.close()
