"""Approximate betweenness centrality by adaptive sampling.

Implements the estimator of Bader, Kintali, Madduri and Mihail,
*Approximating Betweenness Centrality* (WAW 2007) — paper reference
[7] — which pBD substitutes for exact recomputation:

* :func:`approximate_vertex_betweenness` — the adaptive variant for a
  *single* entity: sample source traversals one at a time, accumulate
  the entity's partial dependency ``S``, and stop as soon as
  ``S ≥ c · n``; the estimate is ``n · S / k`` after ``k`` samples.
  High-centrality entities stop after very few samples — that is the
  "adaptive" payoff.
* :func:`sampled_betweenness` — the fixed-fraction variant used inside
  pBD's edge selection: traverse from ``⌈ρ·n⌉`` sampled sources
  (paper: ρ = 5 %), extrapolate all vertex *and* edge scores by
  ``n / k``.  The paper reports < 20 % error on the top-1 % entities at
  ρ = 0.05.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import GraphStructureError
from repro.centrality.betweenness import _brandes_batch, brandes
from repro.kernels._frontier import GraphLike, unwrap
from repro.kernels.bfs import default_batch_size
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context

#: Lane cap for *adaptive* sampling batches: the stopping rule is
#: checked per sample, so a full traversal batch is speculative work —
#: keep it small enough that overshoot past the stopping point is cheap.
ADAPTIVE_BATCH_CAP = 16


@dataclass
class AdaptiveSampleResult:
    """Estimate plus the sampling effort that produced it."""

    estimate: float
    n_samples: int
    stopped_early: bool


@algorithm("approximate_vertex_betweenness", operands=1)
def approximate_vertex_betweenness(
    g: GraphLike,
    v: int,
    *,
    c: float = 5.0,
    max_fraction: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> AdaptiveSampleResult:
    """Adaptive-sampling betweenness estimate for vertex ``v``.

    Samples sources without replacement until the accumulated
    dependency of ``v`` reaches ``c * n`` or ``max_fraction`` of all
    vertices have been used (at which point the estimate is exact up to
    the undirected pair convention).
    """
    graph, edge_active = unwrap(g)
    if graph.directed:
        raise GraphStructureError("betweenness requires an undirected graph")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if not 0 <= v < n:
        raise GraphStructureError(f"vertex {v} out of range [0, {n})")
    if c <= 0:
        raise ValueError("c must be positive")
    rng = rng or np.random.default_rng(0)
    order = rng.permutation(n)
    budget = max(1, int(np.ceil(max_fraction * n)))
    s_total = 0.0
    k = 0
    stopped = False
    lanes = min(ADAPTIVE_BATCH_CAP, default_batch_size(n))
    ctx.cost.region()
    per = float(max(1, graph.n_arcs))
    # Sources traverse in batched lanes; the stopping rule is still
    # applied one sample at a time (lanes are independent, so the
    # per-source dependency of ``v`` is exactly ``delta[lane, v]``),
    # which preserves the adaptive estimator's semantics.
    for start in range(0, budget, lanes):
        batch = order[start : start + lanes]
        delta, _, _ = _brandes_batch(graph, edge_active, batch)
        dep_v = delta[:, v]
        for j in range(batch.shape[0]):
            ctx.cost.phase(per, per)  # one traversal = one sequential sample
            s_total += float(dep_v[j])
            k += 1
            if s_total >= c * n:
                stopped = True
                break
        if stopped:
            break
    if k == 0:
        return AdaptiveSampleResult(0.0, 0, False)
    # Undirected pair convention (each unordered pair counted once).
    estimate = (n / k) * s_total / 2.0
    return AdaptiveSampleResult(estimate, k, stopped)


@algorithm("sampled_betweenness")
def sampled_betweenness(
    g: GraphLike,
    *,
    sample_fraction: float = 0.05,
    min_samples: int = 4,
    batch_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Extrapolated vertex and edge betweenness from sampled sources.

    Returns ``(vertex_scores, edge_scores)`` scaled by ``n / k`` so they
    estimate the exact (undirected, unordered-pair) scores.  This is
    pBD's step-4 primitive: only the *ranking* of the top edges matters
    there, which sampling preserves for high-centrality edges.
    """
    graph, edge_active = unwrap(g)
    if graph.directed:
        raise GraphStructureError("betweenness requires an undirected graph")
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if n == 0:
        return np.zeros(0), np.zeros(0)
    rng = rng or np.random.default_rng(0)
    k = min(n, max(min_samples, int(np.ceil(sample_fraction * n))))
    sources = rng.choice(n, size=k, replace=False)
    # The sampled sweep *is* an exact Brandes run over the sampled
    # sources — route it through the batched engine (coarse-grained, so
    # the k traversals are the backend's parallel tasks) and extrapolate.
    res = brandes(
        g,
        sources=[int(s) for s in sources],
        granularity="coarse",
        batch_size=batch_size,
        ctx=ctx,
    )
    scale = n / k
    return res.vertex * scale, res.edge * scale
