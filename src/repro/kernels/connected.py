"""Connected components (paper §3, ref [6]).

Two engines:

* ``method="sv"`` (default): a vectorized Shiloach–Vishkin-style
  hook-and-compress loop.  Each round folds every row's smallest
  neighbour label, hooks the root of each row that found a smaller one
  onto it (a scatter-min), then pointer-jumps to full compression.
  O(log n) rounds of O(m) vectorized work — the parallel-friendly
  scheme SNAP uses.
* ``method="bfs"``: repeated level-synchronous BFS, the simple
  comparison baseline.

Both honour :class:`~repro.graph.csr.EdgeSubsetView` edge masks, which
is what lets pBD/Girvan–Newman track fragmentation as edges are
removed.  Directed graphs yield *weakly* connected components (the
paper ignores directivity for these analyses).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphStructureError
from repro.kernels._frontier import GraphLike, unwrap
from repro.kernels.bfs import default_batch_size, msbfs
from repro.kernels.segments import reduce_over_rows
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context


@algorithm("connected_components")
def connected_components(
    g: GraphLike,
    *,
    ctx: Optional[ParallelContext] = None,
    method: str = "sv",
) -> np.ndarray:
    """Component label per vertex.

    Labels are the minimum vertex id of each component (deterministic
    and stable across methods), so callers may compare results directly.
    """
    if method == "sv":
        return _sv_components(g, ctx)
    if method == "bfs":
        return _bfs_components(g, ctx)
    raise ValueError(f"unknown method {method!r} (expected 'sv' or 'bfs')")


def _sv_components(g: GraphLike, ctx: Optional[ParallelContext]) -> np.ndarray:
    graph, edge_active = unwrap(g)
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    label = np.arange(n, dtype=np.int64)
    if graph.n_arcs == 0:
        return label
    offsets, targets = graph.offsets, graph.targets
    if edge_active is not None:
        # The live arcs as their own CSR: row r keeps its live arcs.
        live = np.flatnonzero(edge_active[graph.arc_edge_ids])
        offsets = np.searchsorted(live, offsets)
        targets = targets.take(live)
    if graph.directed:
        # Weak connectivity: symmetrise the arcs once.
        src = np.arange(n, dtype=np.int64).repeat(np.diff(offsets))
        src, dst = np.concatenate([src, targets]), np.concatenate([targets, src])
        targets = dst[np.argsort(src, kind="stable")]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    deg = np.diff(offsets)
    m2 = targets.shape[0]
    ctx.cost.region()
    while True:
        cross = np.count_nonzero(label.take(targets) != label.repeat(deg))
        # Hooking pass over all arcs; the scatter-min CAS per cross
        # arc is data-parallel, so it is charged as phase work (two
        # ops each), not as contended synchronization events.
        ctx.cost.phase(float(m2 + 2 * cross), 1.0)
        if not cross:
            break
        # The sharded kernel's round: every row's smallest neighbour
        # label; each row that found a smaller one hooks its root.
        low = reduce_over_rows(np.minimum, label, offsets, targets, label.copy())
        rows = (low < label).nonzero()[0]
        label = _hook_round(label, label.take(rows), low.take(rows), ctx)
    return label


def _hook_round(
    label: np.ndarray,
    roots: np.ndarray,
    lows: np.ndarray,
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """One Shiloach–Vishkin round after its reads: hook each root in
    ``roots`` onto the smallest label ``lows`` offers it (a scatter-min,
    in place), then pointer-jump to full compression.

    ``label`` must be fully compressed (every label a root), so the
    hooks join whole trees and ``label[label]`` jumps each vertex to its
    representative's label.  The in-core kernel and the sharded
    coordinator both call it with each round's per-row minima;
    ``ctx`` charges each jump as one phase.  Returns the new labels.
    """
    np.minimum.at(label, roots, lows)
    while True:
        nxt = label[label]
        if ctx is not None:
            ctx.cost.phase(float(label.shape[0]), 1.0)
        if np.array_equal(nxt, label):
            return label
        label = nxt


def _bfs_components(g: GraphLike, ctx: Optional[ParallelContext]) -> np.ndarray:
    """Repeated BFS, batched: each round seeds a multi-source traversal
    from the smallest still-unlabeled vertices (one lane each), so whole
    groups of components are swept in one vectorized pass instead of one
    Python-level BFS per component."""
    graph, _ = unwrap(g)
    ctx = ensure_context(ctx)
    if graph.directed:
        # Weak connectivity needs symmetric adjacency; fall back to SV,
        # which symmetrizes arcs internally.
        return _sv_components(g, ctx)
    n = graph.n_vertices
    label = np.full(n, -1, dtype=np.int64)
    k = default_batch_size(n)
    while True:
        unlabeled = np.nonzero(label < 0)[0]
        if unlabeled.shape[0] == 0:
            break
        seeds = unlabeled[:k]
        reached = msbfs(g, seeds, ctx=ctx).reached
        # Seeds are ascending, so the first lane reaching a vertex is
        # the smallest seed in its component — the canonical label.
        hit = reached.any(axis=0)
        first_lane = reached.argmax(axis=0)
        label[hit] = seeds[first_lane[hit]]
    return label


def component_sizes(labels: np.ndarray) -> dict[int, int]:
    """Map of component label → vertex count."""
    uniq, counts = np.unique(np.asarray(labels), return_counts=True)
    return {int(u): int(c) for u, c in zip(uniq, counts)}


def largest_component(g: GraphLike, *, ctx: Optional[ParallelContext] = None) -> np.ndarray:
    """Vertex ids of the largest connected component."""
    labels = connected_components(g, ctx=ctx)
    if labels.shape[0] == 0:
        raise GraphStructureError("graph has no vertices")
    uniq, counts = np.unique(labels, return_counts=True)
    big = uniq[np.argmax(counts)]
    return np.nonzero(labels == big)[0]
