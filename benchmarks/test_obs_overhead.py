"""Observability overhead gate: a disabled tracer must be (near) free.

The contract the whole instrumentation effort rests on: with no tracer
installed, the ``algorithm`` wrapper plus the per-level ``if tr:``
guards must not slow the kernels down.  Three variants of the same
all-sources batched betweenness workload on an R-MAT scale-10 graph:

* **bare** — the undecorated function (``brandes.__wrapped__``), zero
  observability surface;
* **untraced** — the public entrypoint with the ambient
  ``NULL_TRACER`` (what every ordinary caller pays);
* **traced** — the public entrypoint recording a full span tree
  (levels, batches, pool gauges), reported for context only.

The gate holds ``untraced / bare - 1 <= 5 %`` on min-of-k timings
(min-of-k is robust to scheduler noise; the ratio of two minima is the
cleanest overhead estimate a wall-clock benchmark can give).  Results
land in ``benchmarks/results/obs_overhead.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_obs_overhead.py -m benchmark_smoke
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from _common import bench_scale, write_result_json
from repro.centrality.betweenness import brandes
from repro.generators import rmat
from repro.obs import NULL_TRACER, Tracer, current_tracer

MAX_DISABLED_OVERHEAD = 0.05
REPEATS = 5


def _min_of_k(fn, k=REPEATS):
    best = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.benchmark_smoke
def test_disabled_tracer_overhead():
    scale = max(8, int(round(10 * bench_scale())))
    g = rmat(
        scale=scale, edge_factor=8, rng=np.random.default_rng(7)
    ).as_undirected()
    sources = np.arange(min(g.n_vertices, 256))
    assert current_tracer() is NULL_TRACER

    bare = brandes.__wrapped__
    t_bare = _min_of_k(lambda: bare(g, sources=sources, engine="batched"))
    t_untraced = _min_of_k(lambda: brandes(g, sources=sources, engine="batched"))

    def traced_once():
        tr = Tracer()
        brandes(g, sources=sources, engine="batched", trace=tr)
        return tr.finish()

    t_traced = _min_of_k(traced_once)
    root = traced_once()

    disabled_overhead = t_untraced / t_bare - 1.0
    traced_overhead = t_traced / t_bare - 1.0
    write_result_json(
        "obs_overhead",
        {
            "graph": {
                "rmat_scale": scale,
                "n_vertices": g.n_vertices,
                "n_edges": g.n_edges,
                "n_sources": int(sources.shape[0]),
            },
            "repeats": REPEATS,
            "seconds_bare": round(t_bare, 6),
            "seconds_untraced": round(t_untraced, 6),
            "seconds_traced": round(t_traced, 6),
            "disabled_overhead_fraction": round(disabled_overhead, 6),
            "traced_overhead_fraction": round(traced_overhead, 6),
            "n_spans_traced": root.n_spans,
            "gate_max_disabled_overhead": MAX_DISABLED_OVERHEAD,
        },
    )
    assert root.find("forward_level"), "traced run recorded no level spans"
    assert disabled_overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled-tracer overhead {disabled_overhead:.1%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%} (bare {t_bare:.4f}s vs "
        f"untraced {t_untraced:.4f}s)"
    )

