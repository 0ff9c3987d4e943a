"""Exact betweenness centrality via Brandes' algorithm (paper §2.1, §3).

Brandes' dependency accumulation runs one truncated BFS per source plus
a reverse sweep.  Both sweeps are vectorized level-by-level: shortest
-path counts ``σ`` accumulate along the level-(L → L+1) arcs in one
scatter-add per level, and dependencies ``δ`` flow back the same way.

``K`` sources traverse simultaneously as lanes of flat ``(K, n)``
distance/σ/δ planes, so one NumPy pass per level replaces ``K``
Python-level sweeps (:func:`_brandes_batch`).  Source batches are the
unit of real execution: :meth:`ParallelContext.map_batches` runs them
on the configured serial/thread/process backend, in rounds whose
partial accumulators fit ``BATCH_ARC_BUDGET`` entries, and each round
is reduced before the next is dispatched.

Two parallelization strategies, as §3 describes; the kernel records
its strategy's modeled phases itself, so the profile is the same on
every backend:

* ``granularity="fine"`` — each traversal's levels are the parallel
  phases (space O(m + n)); every batch reports its per-level
  ``(work, max_item)`` and the coordinator records them in batch order;
* ``granularity="coarse"`` — the n traversals are distributed over the
  p workers, each conceptually holding private accumulators (space
  O(p(m + n)), fewer barriers).  The cost model sees one big phase of
  n·O(m) tasks, which is why coarse-grained BC scales almost linearly.

Edge masks (:class:`EdgeSubsetView`) are honoured; deleted edges carry
no shortest paths — this is what Girvan–Newman iterates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import GraphStructureError
from repro.kernels._frontier import GraphLike, expand_batch, unwrap, vertex_ids
from repro.kernels.bfs import default_batch_size, source_batches
from repro.kernels.segments import distinct
from repro.obs.api import algorithm
from repro.obs.tracer import current_tracer
from repro.parallel.costmodel import phase_of_work
from repro.parallel.runtime import ParallelContext, ensure_context

#: Soft cap on lane-arcs per batch: the σ-arc replay cache plus the
#: bottom-up expansion hold ~20 B per lane-arc, so the default K keeps
#: that transient to a few MB (K = 2 on R-MAT 13, 4 on R-MAT 12, 32
#: below 8 192 arcs).  Time is flat in K up to 8 and rises past it
#: (R-MAT 13, 32 sources: K = 1/2/4/8 61–64 ms, K = 16/32 72/81 ms;
#: DESIGN §1.2b).  It also caps a dispatch round: a round holds as
#: many batches as keep their (n + m)-float partial accumulators within
#: this many entries (2 MB), and never fewer than the worker count.
BATCH_ARC_BUDGET = 1 << 18


def _brandes_batch_size(graph, batch_size: Optional[int]) -> int:
    """Default lane count for batched Brandes (arc-budget aware)."""
    if batch_size is not None:
        return batch_size
    k = default_batch_size(graph.n_vertices)
    return int(max(1, min(k, BATCH_ARC_BUDGET // max(1, graph.n_arcs))))


@dataclass
class BrandesResult:
    """Vertex and edge betweenness accumulated over the chosen sources."""

    vertex: np.ndarray
    edge: np.ndarray
    n_sources: int


def _single_source_accumulate_weighted(
    graph,
    edge_active,
    s: int,
    vertex_acc: np.ndarray,
    edge_acc: np.ndarray,
    ctx: ParallelContext,
) -> float:
    """Weighted Brandes traversal (Dijkstra ordering, paper §2's
    weighted path-length definition).  Sequential per source; charged
    as serial work plus one coarse task."""
    import heapq

    n = graph.n_vertices
    dist = np.full(n, np.inf, dtype=np.float64)
    sigma = np.zeros(n, dtype=np.float64)
    dist[s] = 0.0
    sigma[s] = 1.0
    # predecessor arc lists per vertex (arc index into CSR)
    preds: list[list[int]] = [[] for _ in range(n)]
    order: list[int] = []
    done = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = [(0.0, s)]
    eids = graph.arc_edge_ids
    ops = 0
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        order.append(v)
        lo, hi = graph.arc_range(v)
        wts = graph.neighbor_weights(v)
        ops += hi - lo
        for off in range(hi - lo):
            a = lo + off
            if edge_active is not None and not edge_active[eids[a]]:
                continue
            u = int(graph.targets[a])
            nd = d + float(wts[off])
            if nd < dist[u] - 1e-12:
                dist[u] = nd
                sigma[u] = sigma[v]
                preds[u] = [a]
                heapq.heappush(heap, (nd, u))
            elif abs(nd - dist[u]) <= 1e-12 and not done[u]:
                sigma[u] += sigma[v]
                preds[u].append(a)
    ctx.cost.serial(float(ops))
    delta = np.zeros(n, dtype=np.float64)
    # arc a points from its predecessor v into w; the cached per-arc
    # source array recovers v in O(1) instead of an O(log n)
    # searchsorted per arc.
    asrc = graph.arc_sources()
    for w in reversed(order):
        for a in preds[w]:
            v = int(asrc[a])
            contrib = sigma[v] / sigma[w] * (1.0 + delta[w])
            delta[v] += contrib
            edge_acc[eids[a]] += contrib
    delta[s] = 0.0
    vertex_acc += delta
    return float(delta.sum())


def _scatter_add(out_flat: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """Scatter-add ``vals`` into ``out_flat`` at ``idx``.

    ``np.add.at`` (measured ~2× faster than a weighted ``bincount`` here
    at every realistic plane size, and allocation-free) is the engine's
    repeated-index accumulation primitive.
    """
    np.add.at(out_flat, idx, vals)


def _claimed_frontier(
    dist_flat: np.ndarray, cand: np.ndarray, new_level: int, kn: int
) -> np.ndarray:
    """Sorted, deduplicated flat frontier after a level's distance claims.

    ``cand`` are the (duplicated) flat indices just assigned
    ``new_level``.  Dense frontiers are recovered by scanning the
    ``(K, n)`` plane for the fresh level mark — linear in ``kn`` but
    branch-free and allocation-light — while sparse frontiers (long-
    diameter graphs) fall back to sorting the candidates, avoiding an
    O(diameter · K · n) total scan cost.
    """
    if cand.shape[0] * 8 >= kn:
        return np.flatnonzero(dist_flat == new_level)
    return distinct(cand)


def _brandes_batch(
    graph, edge_active: Optional[np.ndarray], batch: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Run ``K`` Brandes traversals simultaneously (one batch of lanes).

    Traversal state lives in flat ``(K, n)`` planes — ``dist``, ``σ``
    and ``δ`` — and each level is one :func:`expand_batch` gather plus
    bincount scatter-adds shared by every lane, so the per-source
    Python-loop overhead collapses into one NumPy dispatch per level.

    Returns ``(delta, edge_partial, levels)``: the per-lane dependency
    plane (``delta[k]`` is source ``batch[k]``'s δ vector, source entry
    zeroed), the batch's summed per-edge dependency contributions, and
    each level's frontier vertices (``levels[0]`` is ``batch``) — the
    forward sweep visits every level, the backward sweep all but the
    first in reverse.
    """
    n = graph.n_vertices
    batch = np.asarray(batch, dtype=np.int64)
    k = batch.shape[0]
    kn = k * n
    # int32 distances: the plane is gathered per arc, so narrow scalars
    # matter; levels never approach 2**31.
    dist = np.full((k, n), -1, dtype=np.int32)
    sigma = np.zeros((k, n), dtype=np.float64)
    dist_flat = dist.reshape(-1)
    sigma_flat = sigma.reshape(-1)
    lanes0 = np.arange(k, dtype=np.int64)
    dist[lanes0, batch] = 0
    sigma[lanes0, batch] = 1.0
    levels: list[np.ndarray] = [batch]
    # Forward σ-arcs (the arcs shortest paths actually use) are cached
    # per level as (source flat index, target flat index, edge id, σ_src)
    # rows.  The backward sweep's predecessor arcs are *exactly* these
    # arcs reversed — on an undirected graph every tree/level arc
    # (u @ L) → (v @ L+1) is the mirror of the predecessor arc
    # (v @ L+1) → (u @ L) and shares its edge id — so δ accumulation
    # replays the cache with no expansion, no distance gathers and no
    # filtering at all.
    sigma_arcs: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    degs = graph.degrees()
    eids_all = graph.arc_edge_ids
    lanes, verts = lanes0, batch
    level = 0
    # Direction-optimizing sweep (Beamer et al.): at peak levels the
    # frontier covers most arcs while few vertices remain unvisited, so
    # scanning the *unvisited* side finds the same σ-arcs (undirected
    # arcs are their own mirrors, sharing edge ids) at a fraction of the
    # gather traffic.  ``todo_arcs`` tracks the unvisited side's arc
    # count per batch; directed graphs always go top-down (a vertex's
    # out-arcs are not its in-arcs).
    bottom_up_ok = not graph.directed
    todo_arcs = int(k * graph.n_arcs - degs[batch].sum())
    tr = current_tracer()

    # Forward sweep: batched level-synchronous σ accumulation.
    while verts.shape[0]:
        front_arcs = int(degs.take(verts).sum())
        bottom_up = bottom_up_ok and todo_arcs < front_arcs
        sp = (
            tr.begin(
                "forward_level",
                depth=level,
                frontier=int(verts.shape[0]),
                direction="bottom_up" if bottom_up else "top_down",
            )
            if tr
            else None
        )
        if bottom_up:
            # Bottom-up level: expand every unvisited (lane, vertex) and
            # keep the arcs whose far endpoint sits on the frontier —
            # exactly the mirrors of this level's σ-arcs.
            un_flat = np.flatnonzero(dist_flat == -1)
            ulanes = un_flat // n
            uverts = un_flat - ulanes * n
            src_pos, nbr_flat, arc_idx = expand_batch(
                graph, ulanes, uverts, edge_active
            )
            hit = np.flatnonzero(dist_flat.take(nbr_flat) == level)
            u_flat = nbr_flat.take(hit)
            cand = un_flat.take(src_pos.take(hit))
            w = sigma_flat.take(u_flat)
            eids_c = eids_all.take(arc_idx.take(hit))
        else:
            src_pos, tgt_flat, arc_idx = expand_batch(graph, lanes, verts, edge_active)
            # Frontier entries sit at distance `level`, so the arcs that
            # σ flows along (dist[tgt] == dist[src] + 1) are exactly the
            # arcs whose target is still unreached here: those targets —
            # and no others — are assigned level + 1 below.  (flatnonzero
            # + take is several times faster than boolean fancy indexing.)
            unseen = np.flatnonzero(dist_flat.take(tgt_flat) == -1)
            cand = tgt_flat.take(unseen)
            front_flat = lanes * n + verts
            spc = src_pos.take(unseen)
            u_flat = front_flat.take(spc)
            w = sigma_flat.take(front_flat).take(spc)
            eids_c = eids_all.take(arc_idx.take(unseen))
        if cand.shape[0] == 0:
            if sp is not None:
                tr.end(sp, sigma_arcs=0, discovered=0)
            break
        _scatter_add(sigma_flat, cand, w)
        sigma_arcs.append((u_flat, cand, eids_c, w))
        dist_flat[cand] = level + 1
        nxt = _claimed_frontier(dist_flat, cand, level + 1, kn)
        lanes = nxt // n
        verts = nxt - lanes * n
        todo_arcs -= int(degs.take(verts).sum())
        levels.append(verts)
        level += 1
        if sp is not None:
            tr.end(
                sp, sigma_arcs=int(cand.shape[0]), discovered=int(nxt.shape[0])
            )

    # Backward sweep: δ flows level-by-level toward every lane's source.
    # ``sigma_arcs[i]`` holds the (u @ i) → (v @ i+1) shortest-path arcs
    # of every lane, so one reverse pass over the shared level index is
    # per-lane correct even when lanes bottom out at different depths:
    # each arc contributes σ_u / σ_v · (1 + δ_v) to δ_u and to its edge.
    delta = np.zeros((k, n), dtype=np.float64)
    delta_flat = delta.reshape(-1)
    edge_partial = np.zeros(graph.n_edges, dtype=np.float64)
    # σ is only ever divided by on shortest paths (σ > 0 there); the
    # precomputed reciprocal plane turns the per-arc division — the
    # slowest flop in the sweep — into a multiply.
    with np.errstate(divide="ignore"):
        inv_sigma = 1.0 / sigma_flat
    for i in range(len(sigma_arcs) - 1, -1, -1):
        u_flat, v_flat, eids_c, w = sigma_arcs[i]
        sp = (
            tr.begin("backward_level", depth=i, sigma_arcs=int(v_flat.shape[0]))
            if tr
            else None
        )
        contrib = w * inv_sigma.take(v_flat) * (1.0 + delta_flat.take(v_flat))
        _scatter_add(delta_flat, u_flat, contrib)
        _scatter_add(edge_partial, eids_c, contrib)
        if sp is not None:
            tr.end(sp)
    delta[lanes0, batch] = 0.0
    return delta, edge_partial, levels


def _brandes_batch_worker(
    graph, batch: np.ndarray, payload
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, float]]]:
    """Backend-executable unit: one source batch → partial accumulators.

    Module-level (picklable by reference) so
    :meth:`ParallelContext.map_batches` can ship it to process-pool
    workers, which attach the CSR arrays via shared memory.  ``payload``
    is ``(edge_active, phase_model)``: the optional edge-activity mask,
    and ``(n_workers, degree_aware)`` under fine granularity (else
    ``None``).  Returns the vertex and edge partials plus the batch's
    fine-grained ``(work, max_item)`` phases — forward levels, then
    backward — for the coordinator to record.
    """
    edge_active, phase_model = payload
    delta, edge_partial, levels = _brandes_batch(graph, edge_active, batch)
    phases = []
    if phase_model is not None:
        degs = graph.degrees()
        for verts in levels + levels[:0:-1]:
            ph = phase_of_work(degs[verts], *phase_model)
            if ph is not None:
                phases.append(ph)
    return delta.sum(axis=0), edge_partial, phases


@algorithm("brandes")
def brandes(
    g: GraphLike,
    *,
    sources: Optional[Sequence[int]] = None,
    granularity: str = "fine",
    normalized: bool = False,
    weights: Optional[str] = None,
    batch_size: Optional[int] = None,
    ctx: Optional[ParallelContext] = None,
) -> BrandesResult:
    """Brandes betweenness from the given sources (default: all).

    Returns raw (or pair-normalized) vertex and edge scores.  For
    undirected graphs each unordered pair is counted once, matching
    networkx's unnormalized convention.

    ``weights``: ``None`` auto-detects — a weighted graph with
    non-uniform weights uses Dijkstra-ordered (weighted shortest path)
    accumulation, anything else the hop-count BFS engine; pass
    ``"weight"`` or ``"hops"`` to force.

    The hop-count engine traverses ``batch_size`` sources per
    vectorized sweep and executes the batches through
    :meth:`ParallelContext.map_batches` on ``ctx``'s configured backend
    (serial/thread/process).  The weighted path runs one source at a
    time (Dijkstra ordering is inherently sequential per source).
    """
    if weights not in (None, "weight", "hops"):
        raise ValueError("weights must be None, 'weight' or 'hops'")
    graph, edge_active = unwrap(g)
    if graph.directed:
        raise GraphStructureError(
            "betweenness requires an undirected graph (the paper ignores "
            "directivity; call as_undirected() first)"
        )
    ctx = ensure_context(ctx)
    if granularity not in ("fine", "coarse"):
        raise ValueError("granularity must be 'fine' or 'coarse'")
    n = graph.n_vertices
    vertex_acc = np.zeros(n, dtype=np.float64)
    edge_acc = np.zeros(graph.n_edges, dtype=np.float64)
    src_list = vertex_ids(
        range(n) if sources is None else sources, n, "source"
    ).tolist()

    weighted = weights == "weight" or (
        weights is None and not graph.has_unit_weights
    )
    # Coarse granularity: one phase of |S| traversals of ~O(m) work
    # each, p-way distributed.  Fine: the levels are the phases.
    per_traversal = float(max(1, graph.n_arcs))
    if weighted:
        ctx.cost.region()
        ctx.cost.phase(per_traversal * len(src_list), per_traversal)
        for s in src_list:
            _single_source_accumulate_weighted(
                graph, edge_active, s, vertex_acc, edge_acc, ctx
            )
    elif src_list:
        batches = source_batches(src_list, _brandes_batch_size(graph, batch_size), n)
        fine = granularity == "fine"
        payload = (edge_active, (ctx.n_workers, ctx.degree_aware) if fine else None)
        # Rounds bound the live partials (n + m floats per batch); each
        # is reduced, in batch order, before the next is dispatched.
        per_round = max(ctx.n_workers, BATCH_ARC_BUDGET // (n + graph.n_edges))
        ctx.cost.region()
        if not fine:
            ctx.cost.phase(per_traversal * len(src_list), per_traversal)
        for start in range(0, len(batches), per_round):
            for vertex_partial, edge_partial, phases in ctx.map_batches(
                _brandes_batch_worker,
                graph,
                batches[start : start + per_round],
                payload=payload,
            ):
                vertex_acc += vertex_partial
                edge_acc += edge_partial
                for ph in phases:
                    ctx.cost.phase(*ph)

    # Undirected double-counting: each unordered pair contributes from
    # both endpoints as sources.
    vertex_acc /= 2.0
    edge_acc /= 2.0
    if normalized:
        pairs = (n - 1) * (n - 2) / 2.0
        if pairs > 0:
            vertex_acc /= pairs
        epairs = n * (n - 1) / 2.0
        if epairs > 0:
            edge_acc /= epairs
    return BrandesResult(vertex_acc, edge_acc, len(src_list))


@algorithm("betweenness")
def betweenness_centrality(
    g: GraphLike,
    *,
    normalized: bool = False,
    granularity: str = "fine",
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Exact vertex betweenness (all sources)."""
    return brandes(
        g, normalized=normalized, granularity=granularity, ctx=ctx
    ).vertex


@algorithm("edge_betweenness")
def edge_betweenness_centrality(
    g: GraphLike,
    *,
    normalized: bool = False,
    granularity: str = "fine",
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Exact edge betweenness indexed by edge id (all sources)."""
    return brandes(
        g, normalized=normalized, granularity=granularity, ctx=ctx
    ).edge
