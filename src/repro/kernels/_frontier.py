"""Vectorized CSR frontier expansion shared by the traversal kernels.

``expand`` gathers the adjacency of an entire frontier in O(frontier
arcs) NumPy work — the inner step of level-synchronous traversal
(paper §3) — and is where the :class:`EdgeSubsetView` edge mask is
applied for divisive clustering.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.errors import GraphStructureError
from repro.graph.csr import EdgeSubsetView, Graph


GraphLike = Union[Graph, EdgeSubsetView]


def unwrap(g: GraphLike) -> tuple[Graph, Optional[np.ndarray]]:
    """Split a graph-or-view into ``(graph, edge_active_mask_or_None)``."""
    if isinstance(g, EdgeSubsetView):
        return g.graph, g.active
    return g, None


def vertex_ids(ids, n: Optional[int] = None, what: str = "vertex") -> np.ndarray:
    """Caller vertex ids as an int64 array, each in ``[0, n)`` (any
    non-negative int64 when ``n`` is ``None``).

    Integral floats are accepted; strings, booleans, non-integral
    numbers and NaN raise :class:`GraphStructureError` instead of being
    truncated to another vertex.
    """
    if not isinstance(ids, np.ndarray):
        ids = list(ids)
        if not {bool, np.bool_}.isdisjoint(map(type, ids)):
            raise GraphStructureError(f"{what} ids must be integers, not booleans")
    raw = np.asarray(ids)
    if raw.ndim != 1 or raw.dtype.kind not in "iuf":
        raise GraphStructureError(f"{what} ids must be a list of integers")
    if raw.dtype.kind == "f":
        frac = ~np.isfinite(raw) | (np.floor(raw) != raw)
        if frac.any():
            raise GraphStructureError(f"{what} {raw[frac][0]} is not an integer")
    bad = (raw < 0) | (raw >= (np.iinfo(np.int64).max if n is None else n))
    if bad.any():
        bound = "" if n is None else f" [0, {n})"
        raise GraphStructureError(f"{what} {raw[bad][0]} out of range{bound}")
    return raw.astype(np.int64)


def frontier_arc_indices(graph: Graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arc indices and degree counts for a frontier of vertices.

    Returns ``(arc_idx, degs)`` where ``arc_idx`` concatenates every
    frontier vertex's arc-index range (so ``targets[arc_idx]`` is the
    multiset of candidate neighbors) and ``degs[i]`` is the degree of
    ``frontier[i]`` (useful for attributing arcs back to sources via
    ``np.repeat(frontier, degs)``).
    """
    starts = graph.offsets.take(frontier)
    degs = graph.degrees().take(frontier)
    total = int(degs.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), degs
    # Standard CSR multi-slice gather: a single arange shifted per
    # segment by (segment start - exclusive prefix sum of the degrees).
    shifts = np.repeat(starts - (np.cumsum(degs) - degs), degs)
    arc_idx = np.arange(total, dtype=np.int64) + shifts
    return arc_idx, degs


def expand(
    graph: Graph,
    frontier: np.ndarray,
    edge_active: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand a frontier into candidate arcs.

    Returns ``(sources, targets, arc_idx)`` filtered by the optional
    edge-activity mask.  ``sources[i]`` is the frontier vertex whose arc
    ``arc_idx[i]`` points at ``targets[i]``.
    """
    arc_idx, degs = frontier_arc_indices(graph, frontier)
    if arc_idx.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, arc_idx
    sources = np.repeat(frontier, degs)
    targets = graph.targets[arc_idx]
    if edge_active is not None:
        keep = edge_active[graph.arc_edge_ids[arc_idx]]
        return sources[keep], targets[keep], arc_idx[keep]
    return sources, targets, arc_idx


def expand_batch(
    graph: Graph,
    lanes: np.ndarray,
    frontier: np.ndarray,
    edge_active: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand a *batched* frontier into per-lane arc segments.

    The batched traversal engine runs ``K`` independent traversals
    ("lanes") at once; its frontier is the pair ``(lanes, frontier)``
    where ``frontier[i]`` is a vertex on lane ``lanes[i]``'s frontier.
    One call gathers the adjacency of every (lane, vertex) entry, so a
    single NumPy pass per level replaces ``K`` Python-level expansions.

    Returns ``(src_pos, tgt_flat, arc_idx)`` — one row per candidate
    arc, filtered by the optional edge-activity mask:

    * ``tgt_flat`` — each arc's target as a *flat batch index*
      ``lane * n + vertex``, a direct offset into the engine's ``(K, n)``
      state planes;
    * ``src_pos`` — each arc's position in the *frontier arrays*, so a
      per-frontier-entry value table ``vals`` (σ, flat indices, …) maps
      to arcs as ``vals.take(src_pos)``.  Frontier tables are tiny and
      cache-resident, which makes this far cheaper than gathering from
      the full ``(K, n)`` planes per arc;
    * ``arc_idx`` — each arc's CSR arc index (free to return — it drives
      the target gather anyway), from which consumers can gather edge
      ids for whatever *subset* of arcs they actually keep.

    All three streams are int64: every one is consumed as a gather /
    scatter index, and NumPy re-casts non-``intp`` index arrays on each
    call — measured ~2× per-gather overhead for int32 indices, far
    outweighing their bandwidth savings on the sequential passes.
    """
    starts = graph.offsets[frontier]
    degs = graph.offsets[frontier + 1] - starts
    total = int(degs.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    # Standard CSR multi-slice gather: a single arange shifted per
    # segment.  Only ``src_pos`` is materialized by ``np.repeat``; the
    # per-arc shift and lane-base streams come from the tiny (frontier-
    # sized, cache-resident) tables via ``take(src_pos)``, which is
    # measurably cheaper than two more repeats over every arc.
    src_pos = np.repeat(np.arange(frontier.shape[0], dtype=np.int64), degs)
    shifts = starts - np.concatenate(([0], np.cumsum(degs)[:-1]))
    arc_idx = np.arange(total, dtype=np.int64) + shifts.take(src_pos)
    tgt_flat = (lanes * graph.n_vertices).take(src_pos) + graph.targets.take(arc_idx)
    if edge_active is not None:
        kept = np.flatnonzero(edge_active.take(graph.arc_edge_ids.take(arc_idx)))
        return src_pos.take(kept), tgt_flat.take(kept), arc_idx.take(kept)
    return src_pos, tgt_flat, arc_idx
