"""Clustering coefficients via vectorized triangle counting.

Triangles are counted by sorted-adjacency intersection: for each edge
``(u, v)``, ``|N(u) ∩ N(v)|`` is accumulated onto both endpoints and
every common neighbor.  The CSR invariant (adjacency slices sorted)
lets a whole block of edges intersect at once through the probe of
:func:`repro.kernels.segments.intersect_sorted_segments` — a batched
branch-free binary search probing each edge's smaller endpoint
adjacency into the larger, ``O(Σ min(dᵤ, dᵥ) · log maxdeg)`` flat NumPy
work with no Python loop over edges (DESIGN §1.2c).  A block holds at
most :data:`QUERY_BLOCK` probe queries, so the working set is fixed
rather than ``O(Σ min(dᵤ, dᵥ))`` (DESIGN §1.2).
The per-edge ``np.intersect1d`` loop it replaced survives as
:func:`repro.qa.oracles.triangle_counts_arcloop`, the reference the
microbenchmarks and equivalence tests compare against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphStructureError
from repro.kernels._frontier import GraphLike
from repro.kernels.segments import _probe_segments, _segment_keys, chunk_bounds
from repro.parallel.runtime import ParallelContext, ensure_context

#: Probe queries per intersection block: ~a dozen int64 temporaries of
#: this length, 64 k → ~4 MB whatever the graph (R-MAT 12 has 554 k).
QUERY_BLOCK = 1 << 16


def triangle_counts(
    g: GraphLike, *, ctx: Optional[ParallelContext] = None
) -> np.ndarray:
    """Number of triangles through each vertex."""
    graph = g.live()
    if graph.directed:
        raise GraphStructureError("triangle counting requires an undirected graph")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    tri = np.zeros(n, dtype=np.int64)
    if graph.n_edges == 0:
        return tri

    u_arr, v_arr = graph.edge_endpoints()
    offsets, targets = graph.offsets, graph.targets
    degs = np.diff(offsets)
    du, dv = degs[u_arr], degs[v_arr]
    ctx.cost.phase_from_work(du + dv)
    keys, stride = _segment_keys(offsets, targets)
    bounds = chunk_bounds(np.minimum(du, dv), QUERY_BLOCK)
    counts = np.empty(u_arr.shape[0], dtype=np.int64)
    # Each triangle is seen once per edge (3 edges), contributing 1 to
    # each of its 3 vertices each time → every vertex accumulates its
    # triangle count 3 times.  ``add.at`` costs O(block), not O(n).
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        counts[b0:b1], common, _ = _probe_segments(
            offsets, targets, keys, stride, u_arr[b0:b1], v_arr[b0:b1]
        )
        np.add.at(tri, common, 1)
    tri += np.bincount(u_arr, weights=counts, minlength=n).astype(np.int64)
    tri += np.bincount(v_arr, weights=counts, minlength=n).astype(np.int64)
    return tri // 3


def local_clustering_coefficients(
    g: GraphLike, *, ctx: Optional[ParallelContext] = None
) -> np.ndarray:
    """C(v) = triangles(v) / (deg(v) choose 2); 0 for degree < 2."""
    graph = g.live()
    tri = triangle_counts(graph, ctx=ctx)
    deg = graph.degrees().astype(np.float64)
    pairs = deg * (deg - 1) / 2.0
    out = np.zeros(graph.n_vertices, dtype=np.float64)
    ok = pairs > 0
    out[ok] = tri[ok] / pairs[ok]
    return out


def average_clustering(g: GraphLike, *, ctx: Optional[ParallelContext] = None) -> float:
    """Mean of the local clustering coefficients (Watts–Strogatz C)."""
    if g.n_vertices == 0:
        return 0.0
    return float(local_clustering_coefficients(g, ctx=ctx).mean())


def global_clustering_coefficient(
    g: GraphLike, *, ctx: Optional[ParallelContext] = None
) -> float:
    """Transitivity: 3 · triangles / connected triples."""
    graph = g.live()
    tri = triangle_counts(graph, ctx=ctx)
    deg = graph.degrees().astype(np.float64)
    triples = float((deg * (deg - 1) / 2.0).sum())
    if triples == 0:
        return 0.0
    return float(tri.sum() / triples)
