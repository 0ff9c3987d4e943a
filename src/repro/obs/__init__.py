"""Observability layer: tracing, phase metrics, profiling hooks.

The measurement surface behind the paper's evaluation (per-phase
work/span/sync profiles, Figures 2–3, Tables 1–2), shared by every
algorithm through the canonical entrypoint surface
``fn(graph, *, ctx=None, seed=None, trace=None, ...)``:

* :mod:`repro.obs.tracer` — nested wall-clock spans with counters; the
  disabled :data:`~repro.obs.tracer.NULL_TRACER` is a falsy no-op so
  untraced runs stay honest benchmarks;
* :mod:`repro.obs.sinks` — JSON-lines and flame-summary exports of a
  recorded span tree;
* :mod:`repro.obs.api` — the :func:`~repro.obs.api.algorithm` decorator
  (registry, ``seed=``/``trace=`` normalization, deprecation shims);
* :mod:`repro.obs.runner` — :func:`~repro.obs.runner.run` and the
  :class:`~repro.obs.runner.RunResult` envelope (payload + trace +
  cost model + pool gauges + timing).
"""

from repro.obs.api import ALGORITHMS, algorithm, algorithm_names, get_algorithm
from repro.obs.runner import RunResult, run
from repro.obs.sinks import flame_summary, iter_jsonl
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "algorithm",
    "algorithm_names",
    "get_algorithm",
    "ALGORITHMS",
    "run",
    "RunResult",
    "iter_jsonl",
    "flame_summary",
]
