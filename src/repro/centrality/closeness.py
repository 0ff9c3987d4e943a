"""Closeness centrality (paper §2.1): CC(v) = 1 / Σ_u d(v, u).

For disconnected graphs the sum runs over v's component, scaled by the
Wasserman–Faust factor ``(r - 1)/(n - 1)`` (the same convention as
networkx's ``wf_improved``), so scores remain comparable across
components.

Unweighted sources are traversed by the batched multi-source engine:
``batch_size`` lanes share one vectorized BFS sweep
(:func:`~repro.kernels.bfs.msbfs`), and source batches execute on the
context's serial/thread/process backend.  Weighted graphs fall back to
per-source Dijkstra (inherently sequential per source).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.csr import EdgeSubsetView
from repro.kernels._frontier import GraphLike, unwrap
from repro.kernels.bfs import msbfs, source_batches
from repro.kernels.sssp import dijkstra
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context


def _lane_totals(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A batch's ``(K, n)`` BFS distances → per-lane ``(reached_count,
    distance_total)``."""
    reached = dist >= 0
    r = reached.sum(axis=1)
    total = np.where(reached, dist, 0).sum(axis=1).astype(np.float64)
    return r.astype(np.int64), total


def _lane_scores(
    r: np.ndarray, total: np.ndarray, n: int, wf_improved: bool
) -> np.ndarray:
    """Per-lane closeness from :func:`_lane_totals` (0 where undefined)."""
    valid = (r > 1) & (total > 0)
    cc = np.zeros(r.shape[0], dtype=np.float64)
    cc[valid] = (r[valid] - 1) / total[valid]
    if wf_improved and n > 1:
        cc[valid] *= (r[valid] - 1) / (n - 1)
    return cc


def _closeness_batch_worker(graph, batch, mask):
    """One source batch → per-lane ``(reached_count, distance_total)``.

    Module-level so the process backend can ship it by reference; the
    payload is the optional edge-activity mask.
    """
    g: GraphLike = graph if mask is None else EdgeSubsetView(graph, mask)
    return _lane_totals(msbfs(g, batch).distances)


@algorithm("closeness")
def closeness_centrality(
    g: GraphLike,
    *,
    sources: Optional[Sequence[int]] = None,
    wf_improved: bool = True,
    batch_size: Optional[int] = None,
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Closeness centrality for ``sources`` (default: every vertex).

    Unweighted graphs, and graphs whose every weight is 1, use batched
    BFS distances; other weighted graphs use Dijkstra.  Directed graphs
    measure *incoming* distance (networkx convention), computed on the
    transpose of the active arcs.
    """
    graph, edge_active = unwrap(g)
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if sources is None:
        sources = range(n)
    src_list = list(sources)
    out = np.zeros(n, dtype=np.float64)
    per_traversal = max(1.0, float(graph.n_arcs))

    if not graph.has_unit_weights:
        # Compacted once; a directed graph's transpose answers d(u -> v)
        # for every u with one traversal from v.
        work_g = g.live().reverse()

        def one(v: int) -> None:
            dist = dijkstra(work_g, v).distances
            reached = np.isfinite(dist)
            r = int(reached.sum())
            total = float(dist[reached].sum())
            if r <= 1 or total <= 0:
                out[v] = 0.0
                return
            cc = (r - 1) / total
            if wf_improved and n > 1:
                cc *= (r - 1) / (n - 1)
            out[v] = cc

        if src_list:
            # One phase of per-source traversals (coarse-grained).
            ctx.cost.region()
            ctx.cost.phase(per_traversal * len(src_list), per_traversal)
        ctx.map(one, src_list)
        return out

    if graph.directed:
        # The transpose renumbers edges, so it keeps only the live ones.
        base, mask = g.live().reverse(), None
    else:
        # The base graph plus the mask: a process pool reuses the base
        # graph's one shared segment rather than exporting a new one.
        base, mask = graph, edge_active
    batches = source_batches(src_list, batch_size, n)
    if batches:
        # One phase whose tasks are the source batches.
        ctx.cost.region()
        ctx.cost.phase(
            per_traversal * len(src_list),
            per_traversal * max(len(b) for b in batches),
        )
    results = ctx.map_batches(_closeness_batch_worker, base, batches, payload=mask)
    for batch, (r, total) in zip(batches, results):
        out[batch] = _lane_scores(r, total, n, wf_improved)
    return out
