"""Single-source shortest paths (paper §3, refs [17, 32]).

The parallel engine is Δ-stepping (Meyer–Sanders), the algorithm the
SNAP authors engineered for massively multithreaded machines in
[32]: vertices are bucketed by ``dist / Δ``; each bucket settles via
repeated vectorized *light*-edge relaxation phases, then *heavy* edges
are relaxed once.  Every relaxation pass is one barrier-separated phase
for the cost model.

A binary-heap Dijkstra baseline validates results and anchors the
algorithm-engineering comparisons.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import GraphStructureError
from repro.kernels._frontier import GraphLike, expand, unwrap
from repro.kernels.segments import distinct
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context

INF = np.inf


@dataclass
class SSSPResult:
    """Distances (inf = unreached) and shortest-path-tree parents."""

    distances: np.ndarray
    parents: np.ndarray

    @property
    def reached(self) -> np.ndarray:
        return np.isfinite(self.distances)


def _check(graph, source: int) -> None:
    if not 0 <= source < graph.n_vertices:
        raise GraphStructureError(
            f"source {source} out of range [0, {graph.n_vertices})"
        )
    if graph.weights is not None and graph.weights.shape[0] and graph.weights.min() < 0:
        raise GraphStructureError("shortest paths require non-negative weights")


@algorithm("delta_stepping", operands=1)
def delta_stepping(
    g: GraphLike,
    source: int,
    *,
    delta: Optional[float] = None,
    ctx: Optional[ParallelContext] = None,
) -> SSSPResult:
    """Δ-stepping SSSP.

    ``delta`` defaults to ``max_weight / average_degree`` (a standard
    heuristic); unit-weight graphs effectively degenerate to
    level-synchronous BFS, as the paper notes.
    """
    graph, edge_active = unwrap(g)
    ctx = ensure_context(ctx)
    _check(graph, source)
    n = graph.n_vertices
    dist = np.full(n, INF, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    parent[source] = source

    if graph.n_arcs == 0:
        return SSSPResult(dist, parent)
    arc_w = graph.arc_weights()
    if delta is None:
        avg_deg = max(1.0, graph.n_arcs / max(1, n))
        delta = max(float(arc_w.max()) / avg_deg, float(arc_w[arc_w > 0].min()) if np.any(arc_w > 0) else 1.0)
    if delta <= 0:
        raise ValueError("delta must be positive")
    light_arc = arc_w <= delta

    def relax(srcs: np.ndarray, tgts: np.ndarray, arc_idx: np.ndarray) -> np.ndarray:
        """Vectorized relaxation; returns vertices whose dist improved."""
        cand = dist[srcs] + arc_w[arc_idx]
        better = cand < dist[tgts]
        if not np.any(better):
            return np.empty(0, dtype=np.int64)
        t, s, c = tgts[better], srcs[better], cand[better]
        # Scatter-min with deterministic parent resolution.
        order = np.lexsort((s, c, t))
        t, s, c = t[order], s[order], c[order]
        first = np.empty(t.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(t[1:], t[:-1], out=first[1:])
        t, s, c = t[first], s[first], c[first]
        improved = c < dist[t]
        t, s, c = t[improved], s[improved], c[improved]
        dist[t] = c
        parent[t] = s
        return t

    bucket_of = np.full(n, -1, dtype=np.int64)
    bucket_of[source] = 0
    current = 0
    degs = graph.degrees()
    ctx.cost.region()
    while True:
        members = np.nonzero(bucket_of == current)[0]
        if members.shape[0] == 0:
            later = bucket_of[bucket_of > current]
            if later.shape[0] == 0:
                break
            current = int(later.min())
            continue
        settled_this_bucket: list[np.ndarray] = []
        # Light-edge phases until the bucket stops refilling.
        req = members
        while req.shape[0]:
            settled_this_bucket.append(req)
            bucket_of[req] = -2  # settled marker (may be re-bucketed)
            srcs, tgts, arc_idx = expand(graph, req, edge_active)
            ctx.cost.phase_from_work(degs[req])
            if arc_idx.shape[0]:
                keep = light_arc[arc_idx]
                improved = relax(srcs[keep], tgts[keep], arc_idx[keep])
            else:
                improved = np.empty(0, dtype=np.int64)
            if improved.shape[0]:
                new_bucket = (dist[improved] / delta).astype(np.int64)
                bucket_of[improved] = new_bucket
                req = improved[new_bucket == current]
            else:
                req = improved
        # Heavy-edge pass over everything settled in this bucket.
        if settled_this_bucket:
            allv = distinct(np.concatenate(settled_this_bucket))
            srcs, tgts, arc_idx = expand(graph, allv, edge_active)
            ctx.cost.phase_from_work(degs[allv])
            if arc_idx.shape[0]:
                keep = ~light_arc[arc_idx]
                improved = relax(srcs[keep], tgts[keep], arc_idx[keep])
                if improved.shape[0]:
                    bucket_of[improved] = (dist[improved] / delta).astype(np.int64)
        current += 1
    return SSSPResult(dist, parent)


@algorithm("dijkstra", operands=1)
def dijkstra(
    g: GraphLike, source: int, *, ctx: Optional[ParallelContext] = None
) -> SSSPResult:
    """Binary-heap Dijkstra baseline (on the live arcs of a view)."""
    graph = g.live()
    ctx = ensure_context(ctx)
    _check(graph, source)
    n = graph.n_vertices
    dist = np.full(n, INF, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    parent[source] = source
    heap: list[tuple[float, int]] = [(0.0, source)]
    done = np.zeros(n, dtype=bool)
    ops = 0
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        adj = graph.neighbors(v)
        ops += adj.shape[0]
        for u, w in zip(adj.tolist(), graph.neighbor_weights(v).tolist()):
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                parent[u] = v
                heapq.heappush(heap, (nd, u))
    ctx.cost.serial(float(ops))
    return SSSPResult(dist, parent)

