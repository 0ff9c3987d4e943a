"""Minimum spanning tree / forest kernels (paper §3, MST with lazy sync).

The parallel engine is Borůvka's algorithm: each round every component
selects its minimum-weight outgoing edge in one vectorized pass (the
"lazy synchronization" analogue — components proceed independently and
only reconcile at the round boundary), components merge, and the round
count is O(log n).  The irregular per-component work is charged to the
cost model through the work-stealing scheduler simulation, mirroring
the paper's "work-stealing graph traversal" for MST.

Kruskal and Prim baselines are provided for validation and for the
ablation benchmark.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.errors import GraphStructureError
from repro.kernels._frontier import GraphLike, unwrap
from repro.kernels.segments import distinct
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context
from repro.parallel.scheduler import simulate_work_stealing


def _edge_arrays(graph, edge_active):
    u, v = graph.edge_endpoints()
    w = graph.edge_weights()
    ids = np.arange(graph.n_edges, dtype=np.int64)
    if edge_active is not None:
        u, v, w, ids = u[edge_active], v[edge_active], w[edge_active], ids[edge_active]
    return u, v, w, ids


@algorithm("boruvka_msf")
def boruvka_msf(
    g: GraphLike, *, ctx: Optional[ParallelContext] = None
) -> np.ndarray:
    """Edge ids of a minimum spanning forest via vectorized Borůvka.

    Ties are broken by edge id, which makes the result deterministic
    and, for distinct-weight graphs, unique.
    """
    graph, edge_active = unwrap(g)
    if graph.directed:
        raise GraphStructureError("MSF requires an undirected graph")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    u, v, w, ids = _edge_arrays(graph, edge_active)
    label = np.arange(n, dtype=np.int64)
    chosen: list[int] = []
    # Tie-break by (weight, edge id): encode as a lexicographic rank.
    order = np.lexsort((ids, w))
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0])

    ctx.cost.region()
    while True:
        lu, lv = label[u], label[v]
        cross = lu != lv
        ctx.cost.phase(float(u.shape[0]), 1.0)
        if not np.any(cross):
            break
        cu, cv, cr, cid = lu[cross], lv[cross], rank[cross], ids[cross]
        # Min outgoing edge rank per component (both endpoints' view).
        # The scatter-min CAS per candidate is data-parallel work.
        best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, cu, cr)
        np.minimum.at(best, cv, cr)
        ctx.cost.phase(float(2 * cr.shape[0]), 1.0)
        sel_rank = distinct(best[best != np.iinfo(np.int64).max])
        sel_mask = np.isin(cr, sel_rank)
        sel_u, sel_v, sel_id = cu[sel_mask], cv[sel_mask], cid[sel_mask]
        chosen.extend(sel_id.tolist())
        # Hook components along selected edges, then pointer-jump.
        hi = np.maximum(sel_u, sel_v)
        lo = np.minimum(sel_u, sel_v)
        np.minimum.at(label, hi, lo)
        while True:
            nxt = label[label]
            ctx.cost.phase(float(n), 1.0)
            if np.array_equal(nxt, label):
                break
            label = nxt
        # Charge the irregular per-component selection work as a
        # simulated work-stealing phase (lazy sync, not a barrier per
        # component).
        comp_ids, counts = np.unique(
            np.concatenate([cu, cv]), return_counts=True
        )
        if comp_ids.shape[0] > 1:
            stats = simulate_work_stealing(
                counts.astype(np.float64), ctx.n_workers
            )
            ctx.cost.phase(
                stats.total_work,
                stats.makespan - stats.total_work / ctx.n_workers
                if ctx.n_workers > 1 else 1.0,
            )
    return np.asarray(sorted(set(chosen)), dtype=np.int64)


@algorithm("kruskal_msf")
def kruskal_msf(g: GraphLike, *, ctx: Optional[ParallelContext] = None) -> np.ndarray:
    """Sequential Kruskal baseline (sort + union–find)."""
    graph, edge_active = unwrap(g)
    if graph.directed:
        raise GraphStructureError("MSF requires an undirected graph")
    ctx = ensure_context(ctx)
    u, v, w, ids = _edge_arrays(graph, edge_active)
    order = np.lexsort((ids, w))
    parent = np.arange(graph.n_vertices, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    ctx.cost.serial(float(order.shape[0]))
    out = []
    for i in order:
        ru, rv = find(int(u[i])), find(int(v[i]))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            out.append(int(ids[i]))
    return np.asarray(sorted(out), dtype=np.int64)


@algorithm("prim_mst", operands=1)
def prim_mst(
    g: GraphLike, source: int = 0, *, ctx: Optional[ParallelContext] = None
) -> np.ndarray:
    """Sequential Prim baseline; spans only ``source``'s component."""
    graph, edge_active = unwrap(g)
    if graph.directed:
        raise GraphStructureError("MST requires an undirected graph")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if not 0 <= source < n:
        raise GraphStructureError(f"source {source} out of range [0, {n})")
    in_tree = np.zeros(n, dtype=bool)
    in_tree[source] = True
    heap: list[tuple[float, int, int]] = []
    eids = graph.arc_edge_ids

    def push(vertex: int) -> None:
        lo, hi = graph.arc_range(vertex)
        wts = graph.neighbor_weights(vertex)
        for off in range(hi - lo):
            a = lo + off
            e = int(eids[a])
            if edge_active is not None and not edge_active[e]:
                continue
            heapq.heappush(heap, (float(wts[off]), e, int(graph.targets[a])))

    push(source)
    ctx.cost.serial(float(graph.degree(source)))
    out = []
    while heap:
        wt, e, tgt = heapq.heappop(heap)
        if in_tree[tgt]:
            continue
        in_tree[tgt] = True
        out.append(e)
        push(tgt)
        ctx.cost.serial(float(graph.degree(tgt)))
    return np.asarray(sorted(out), dtype=np.int64)


@algorithm("minimum_spanning_forest")
def minimum_spanning_forest(
    g: GraphLike,
    *,
    ctx: Optional[ParallelContext] = None,
    method: str = "boruvka",
) -> np.ndarray:
    """Edge ids of an MSF using the chosen engine."""
    engines = {"boruvka": boruvka_msf, "kruskal": kruskal_msf}
    try:
        engine = engines[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r} (expected one of {sorted(engines)})"
        ) from None
    return engine(g, ctx=ctx)


def forest_weight(g: GraphLike, edge_ids: np.ndarray) -> float:
    """Total weight of the given edge set."""
    graph, _ = unwrap(g)
    return float(graph.edge_weights()[np.asarray(edge_ids, dtype=np.int64)].sum())
