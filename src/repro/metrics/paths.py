"""Path-based metrics: average shortest path length, effective diameter.

Exact all-pairs computation is O(nm); for large graphs a sampled
estimate (sources drawn uniformly) is provided, which is how SNAP keeps
these metrics "linear or sub-linear" in practice on massive inputs.

All three metrics are one-BFS-per-source workloads, so they share a
single batched worker: sources traverse in multi-source lanes
(:func:`~repro.kernels.bfs.msbfs`) and the batches execute on the
context's serial/thread/process backend via
:meth:`~repro.parallel.runtime.ParallelContext.map_batches`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphStructureError
from repro.graph.csr import EdgeSubsetView
from repro.kernels._frontier import GraphLike, unwrap
from repro.kernels.bfs import msbfs, source_batches
from repro.parallel.runtime import ParallelContext, ensure_context


def _sources(n: int, n_samples: Optional[int], rng: np.random.Generator) -> np.ndarray:
    if n_samples is None or n_samples >= n:
        return np.arange(n, dtype=np.int64)
    return rng.choice(n, size=n_samples, replace=False)


def _distance_stats_batch(graph, batch, mask):
    """One source batch → ``(sum, pairs, histogram, per-lane ecc)``.

    The shared per-source-distance reduction behind all three metrics;
    module-level so the process backend can ship it by reference.
    ``mask`` is the optional edge-activity mask.
    """
    g: GraphLike = graph if mask is None else EdgeSubsetView(graph, mask)
    dist = msbfs(g, batch).distances
    pos = dist > 0
    vals = dist[pos]
    hist = np.bincount(vals) if vals.shape[0] else np.zeros(0, dtype=np.int64)
    # Unreached entries are -1, so a plain row-max is each lane's
    # eccentricity (the source itself contributes 0).
    ecc = dist.max(axis=1)
    return float(vals.sum()), int(pos.sum()), hist, ecc


def _batched_stats(g: GraphLike, srcs: np.ndarray, ctx: ParallelContext):
    """Run the shared distance-stats worker over batched sources."""
    graph, edge_active = unwrap(g)
    batches = source_batches(srcs, None, graph.n_vertices)
    per = float(max(1, graph.n_arcs))
    if batches:
        # One phase whose tasks are the source batches.
        ctx.cost.region()
        ctx.cost.phase(per * len(srcs), per * max(len(b) for b in batches))
    return ctx.map_batches(
        _distance_stats_batch, graph, batches, payload=edge_active
    )


def average_shortest_path_length(
    g: GraphLike,
    *,
    n_samples: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> float:
    """Mean distance over reachable ordered pairs (sampled if asked).

    Disconnected pairs are ignored (the small-world "short paths"
    statistic is conventionally reported on the giant component).
    """
    graph, _ = unwrap(g)
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if n < 2:
        return 0.0
    rng = rng or np.random.default_rng(0)
    srcs = _sources(n, n_samples, rng)
    total = 0.0
    pairs = 0
    for batch_total, batch_pairs, _, _ in _batched_stats(g, srcs, ctx):
        total += batch_total
        pairs += batch_pairs
    if pairs == 0:
        return 0.0
    return total / pairs


def effective_diameter(
    g: GraphLike,
    *,
    percentile: float = 0.9,
    n_samples: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> float:
    """Distance within which ``percentile`` of reachable pairs lie.

    The standard robust small-world diameter statistic (the exact
    diameter is hostage to a single long path).
    """
    if not 0.0 < percentile <= 1.0:
        raise ValueError("percentile must be in (0, 1]")
    graph, _ = unwrap(g)
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if n < 2:
        return 0.0
    rng = rng or np.random.default_rng(0)
    srcs = _sources(n, n_samples, rng)
    hist = np.zeros(0, dtype=np.int64)
    for _, _, batch_hist, _ in _batched_stats(g, srcs, ctx):
        if batch_hist.shape[0] > hist.shape[0]:
            batch_hist = batch_hist.copy()
            batch_hist[: hist.shape[0]] += hist
            hist = batch_hist
        else:
            hist[: batch_hist.shape[0]] += batch_hist
    if hist.shape[0] == 0 or hist.sum() == 0:
        return 0.0
    cum = np.cumsum(hist)
    target = percentile * cum[-1]
    return float(np.searchsorted(cum, target))


def eccentricity_sample(
    g: GraphLike,
    *,
    n_samples: int = 32,
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> tuple[float, int]:
    """``(mean eccentricity, max observed)`` over sampled sources.

    The max is a lower bound on the true diameter.
    """
    graph, _ = unwrap(g)
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if n == 0:
        raise GraphStructureError("graph has no vertices")
    rng = rng or np.random.default_rng(0)
    srcs = _sources(n, n_samples, rng)
    eccs = np.concatenate(
        [ecc for _, _, _, ecc in _batched_stats(g, srcs, ctx)]
    )
    return float(np.mean(eccs)), int(eccs.max())
