"""pLA — greedy local aggregation clustering (Algorithm 3).

Unlike pBD/pMA, which serialize on a global metric each iteration, pLA
lets "multiple execution threads concurrently try to identify
communities" using only *local* information:

1. biconnected components identify bridges; bridges are removed and
   connected components computed (steps 1–2);
2. within each component, repeated randomized passes pick a vertex,
   choose an adjacent cluster by a local metric (edge weight to the
   cluster, neighbor degree, or neighbor clustering coefficient), and
   merge — accepting only if the overall modularity increases
   (steps 3–8);
3. the per-component clusterings are amalgamated at the top level:
   bridge-connected clusters are greedily merged while modularity keeps
   increasing.

Every pass over a component's vertices is one parallel phase (seeds
proceed concurrently; merges are the only synchronization, charged as
lock events), and distinct components are processed concurrently —
which is why pLA's speedup in Figure 2 tracks the traversal kernels.

Cluster membership is tracked with a union–find forest (path
compression), so a merge is O(1) and the whole pass is near-linear.

Fast paths (DESIGN §1.2c)
-------------------------
The final refinement pass and the ``multilevel=True`` mode run as
*synchronized* vectorized sweeps over the edge-centric segment
primitives (:mod:`repro.kernels.segments`): one composite-key sort groups
every arc by ``(vertex, neighbor-cluster)``, a segmented argmax picks
each vertex's best move by exact ΔQ, and moves are accepted under a
modularity-monotone guard (apply the highest-gain prefix that provably
increases Q — the single best mover always does, so sweeps never
regress).  ``multilevel=True`` alternates these sweeps with
:func:`repro.graph.builder.contract` coarsening à la synchronized
Louvain, which is one to two orders of magnitude faster than the
per-vertex aggregation passes on R-MAT instances past scale 12.
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext as _noop
from typing import Callable, Optional

import numpy as np

from repro.community.modularity import modularity, modularity_evaluator
from repro.community.result import ClusteringResult
from repro.errors import ClusteringError, GraphStructureError
from repro.graph.builder import contract
from repro.graph.csr import Graph
from repro.kernels.biconnected import biconnected_components
from repro.kernels.connected import connected_components
from repro.kernels.segments import (
    distinct,
    group_offsets,
    grouped_label_weights,
    segment_argmax,
)
from repro.metrics.clustering import local_clustering_coefficients
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context

LOCAL_METRICS = ("weight", "degree", "clustering")

#: Step-7 tie-rank tables, resolved *lazily*: the clustering-coefficient
#: kernel (a triangle count) only runs when the metric actually needs
#: it — ``weight``/``degree`` never invoke it.
_METRIC_TABLES = {
    "weight": lambda graph, degree_strength: degree_strength,
    "degree": lambda graph, degree_strength: degree_strength,
    "clustering": lambda graph, degree_strength: local_clustering_coefficients(graph),
}


@algorithm("pla")
def pla(
    graph: Graph,
    *,
    local_metric: str = "weight",
    max_passes: int = 16,
    remove_bridges: bool = True,
    refine: bool = True,
    multilevel: bool = False,
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> ClusteringResult:
    """Greedy local aggregation; returns a modularity-increasing partition.

    ``local_metric`` selects the neighbor-cluster choice rule of step 7;
    modularity acceptance (step 8) is common to all three rules, so the
    result's Q is monotone in the number of accepted merges regardless.
    ``refine`` runs a final local-moving pass (single vertices migrate
    to the adjacent cluster of highest gain), repairing the occasional
    cross-community merge the randomized aggregation commits early.

    ``multilevel=True`` switches to the coarsening fast path: fully
    vectorized synchronized local-moving sweeps alternating with graph
    contraction (``local_metric``/``remove_bridges`` are not consulted —
    move choice is always by exact ΔQ).  The result is deterministic and
    its modularity is monotone over sweeps and exact across levels.
    """
    if graph.directed:
        raise GraphStructureError("community detection requires an undirected graph")
    if local_metric not in LOCAL_METRICS:
        raise ValueError(f"local_metric must be one of {LOCAL_METRICS}")
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if n == 0:
        raise ClusteringError("cannot cluster an empty graph")
    rng = rng or np.random.default_rng(0)

    W = float(graph.edge_weights().sum())
    if W == 0.0:
        return ClusteringResult(np.arange(n, dtype=np.int64), 0.0, "pLA")

    if multilevel:
        return _multilevel_pla(graph, W, max_passes=max_passes, ctx=ctx)

    # Steps 1–2: remove bridges, split into components.
    view = graph.view()
    if remove_bridges and graph.n_edges:
        bic = biconnected_components(view, ctx=ctx)
        for e in bic.bridges:
            view.deactivate(int(e))
    comp = connected_components(view, ctx=ctx)
    n_bridge_components = int(distinct(comp).shape[0])

    degree_strength = np.zeros(n, dtype=np.float64)
    u_arr, v_arr = graph.edge_endpoints()
    w_arr = graph.edge_weights()
    np.add.at(degree_strength, u_arr, w_arr)
    np.add.at(degree_strength, v_arr, w_arr)

    # Union–find cluster forest.
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    strength = degree_strength.copy()  # valid at cluster roots
    # Inter-cluster weights as dict-of-dicts over *active* edges,
    # keyed by cluster roots.
    cw: dict[int, dict[int, float]] = {v: {} for v in range(n)}
    for e in np.nonzero(view.active)[0]:
        a, b, w = int(u_arr[e]), int(v_arr[e]), float(w_arr[e])
        cw[a][b] = cw[a].get(b, 0.0) + w
        cw[b][a] = cw[b].get(a, 0.0) + w

    tie_rank: Optional[np.ndarray] = None  # lazily resolved (see below)

    def resolve_tie_rank() -> np.ndarray:
        nonlocal tie_rank
        if tie_rank is None:
            tie_rank = _METRIC_TABLES[local_metric](graph, degree_strength)
        return tie_rank

    def dq(a: int, b: int) -> float:
        return cw[a].get(b, 0.0) / W - strength[a] * strength[b] / (2.0 * W * W)

    def merge(a: int, b: int) -> None:
        """Absorb cluster root b into cluster root a."""
        parent[b] = a
        row_b = cw.pop(b)
        cw[a].pop(b, None)
        row_b.pop(a, None)
        for x, w in row_b.items():
            cw[x].pop(b, None)
            cw[a][x] = cw[a].get(x, 0.0) + w
            cw[x][a] = cw[a][x]
        strength[a] += strength[b]
        strength[b] = 0.0
        ctx.cost.cas(1)

    arc_active = view.arc_active()

    def candidate_cluster(v: int, cv: int) -> Optional[int]:
        """Step 7: pick the adjacent cluster by the local metric."""
        lo, hi = graph.arc_range(v)
        mask = arc_active[lo:hi]
        nbrs = graph.targets[lo:hi][mask]
        if nbrs.shape[0] == 0:
            return None
        cn = np.asarray([find(int(x)) for x in nbrs], dtype=np.int64)
        other = cn != cv
        if not np.any(other):
            return None
        nbrs, cn = nbrs[other], cn[other]
        if local_metric == "weight":
            wts = graph.neighbor_weights(v)[mask][other]
            per: dict[int, float] = {}
            for c, w in zip(cn.tolist(), wts.tolist()):
                per[c] = per.get(c, 0.0) + w
            # deterministic: max weight into the cluster, then smallest id
            return min(per, key=lambda c: (-per[c], c))
        # degree / clustering: follow the highest-ranked neighbor vertex
        scores = resolve_tie_rank()[nbrs]
        best = int(np.lexsort((nbrs, -scores))[0])
        return int(cn[best])

    # Steps 3–8: randomized local aggregation passes.
    seed_order = rng.permutation(n)
    degs = graph.degrees()
    max_deg = float(degs.max()) if n else 1.0
    n_merges = 0
    for _ in range(max_passes):
        merged_this_pass = 0
        # One pass = one parallel phase over all seeds (across components).
        ctx.cost.region()
        ctx.cost.phase(float(max(1, graph.n_arcs)), max(1.0, max_deg))
        for v in seed_order:
            v = int(v)
            c = find(v)
            d = candidate_cluster(v, c)
            if d is None or d == c:
                continue
            if dq(c, d) > 0.0:  # step 8: accept only if Q increases
                a, b = (c, d) if c < d else (d, c)
                merge(a, b)
                merged_this_pass += 1
        n_merges += merged_this_pass
        if merged_this_pass == 0:
            break

    # Top-level amalgamation across the removed bridges.
    if remove_bridges and graph.n_edges:
        bridge_eids = np.nonzero(~view.active)[0]
        pairs = set()
        for e in bridge_eids:
            a, b = find(int(u_arr[e])), find(int(v_arr[e]))
            if a == b:
                continue
            w = float(w_arr[e])
            cw[a][b] = cw[a].get(b, 0.0) + w
            cw[b][a] = cw[b].get(a, 0.0) + w
            pairs.add((min(a, b), max(a, b)))
        heap = [(-dq(a, b), a, b) for a, b in sorted(pairs)]
        heapq.heapify(heap)
        while heap:
            neg, a, b = heapq.heappop(heap)
            if find(a) != a or find(b) != b:
                continue
            gain = dq(a, b)
            if -neg != gain:
                if gain > 0.0:
                    heapq.heappush(heap, (-gain, a, b))
                continue
            if gain <= 0.0:
                continue
            merge(a, b)
            n_merges += 1
            for x in list(cw[a]):
                g2 = dq(a, int(x))
                if g2 > 0:
                    lo_c, hi_c = (a, int(x)) if a < x else (int(x), a)
                    heapq.heappush(heap, (-g2, lo_c, hi_c))

    labels = np.asarray([find(v) for v in range(n)], dtype=np.int64)
    if refine:
        labels, *_ = _local_moving_refinement(graph, labels, W, max_passes, ctx)
    q = modularity(graph, labels)
    return ClusteringResult(
        labels,
        q,
        "pLA",
        extras={
            "n_merges": n_merges,
            "n_bridge_components": n_bridge_components,
            "local_metric": local_metric,
        },
    )


# ---------------------------------------------------------------------------
# Vectorized synchronized local moving (shared by refine and multilevel)
# ---------------------------------------------------------------------------
def _loopless_arcs(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, tgt, weight) arc arrays with self-arcs removed.

    Coarse graphs from :func:`contract` carry self-loops; a self-loop
    moves with its vertex, so it cancels out of every ΔQ and is dropped
    from the move bookkeeping (it still counts in vertex strength).
    """
    src = graph.arc_sources()
    tgt = graph.targets
    w = graph.arc_weights()
    keep = src != tgt
    if keep.all():
        return src, tgt, w
    return src[keep], tgt[keep], w[keep]


def _vertex_strengths(graph: Graph) -> np.ndarray:
    """Per-vertex strength over *all* arcs (self-loops count twice)."""
    w = graph.arc_weights()
    return np.bincount(graph.arc_sources(), weights=w, minlength=graph.n_vertices)


def _best_moves(
    labels: np.ndarray,
    strength_v: np.ndarray,
    S: np.ndarray,
    W: float,
    src: np.ndarray,
    tgt: np.ndarray,
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-move scan: one grouping sort + segmented sums/argmax.

    Returns ``(vid, best_lab, best_gain)`` — one row per distinct source
    vertex, ``best_lab = -1`` (gain ``-inf``) when the vertex has no
    cross-label candidate.
    """
    n = strength_v.shape[0]
    gsrc, glab, gsum = grouped_label_weights(src, labels[tgt], w)

    own_lab = labels[gsrc]
    own = own_lab == glab
    own_rows = np.flatnonzero(own)
    w_own = np.zeros(n, dtype=np.float64)
    w_own[gsrc[own_rows]] = gsum[own_rows]
    kv = strength_v[gsrc]
    own_s = S[own_lab]
    gain = (gsum - w_own[gsrc]) / W - kv * (S[glab] - (own_s - kv)) / (2.0 * W * W)
    score = np.where(own, -np.inf, gain)

    # Per-vertex best group: groups are (vertex, label)-sorted, so the
    # first-index tie-break lands on the smallest candidate label.
    voffs = group_offsets(gsrc)
    arg = segment_argmax(score, voffs)
    best_gain = score[arg]
    best_lab = glab[arg]
    vid = gsrc[voffs[:-1]]
    # A vertex whose neighbors all share its label argmaxes onto an
    # own-label (-inf) group; normalize to the -1 sentinel (such rows
    # never pass the movers filter either way).
    best_lab = np.where(best_gain == -np.inf, -1, best_lab)
    return vid, best_lab, best_gain


def _guarded_sweep(
    labels: np.ndarray,
    strength_v: np.ndarray,
    q: float,
    q_of: Callable[[np.ndarray], float],
    best_moves: Callable[[np.ndarray], tuple],
) -> tuple[np.ndarray, float, int]:
    """One synchronized sweep, the step every driver shares; returns
    ``(labels, q, n_moved)``.

    ``best_moves(S)``, given the cluster strengths ``S`` of ``labels``,
    returns every vertex's best move as ``(vid, best_lab, best_gain)``
    in ascending vertex order: one :func:`_best_moves` call in core, one
    superstep over the shards in ``sharded_pla``.  Movers are ranked by
    gain (vertex id breaks ties) and the longest halved prefix whose
    *joint* application gives ``q_of(cand) > q`` is kept; the single
    best mover has exactly its computed gain, so progress is guaranteed
    while any positive-gain move exists.  ``q_of`` must be the full
    modularity: the comparison is exact and symmetric swaps sit on its
    edge, so an incremental ΔQ (different rounding) would change which
    prefixes survive.
    """
    S = np.bincount(labels, weights=strength_v, minlength=strength_v.shape[0])
    vid, best_lab, best_gain = best_moves(S)
    movers = np.nonzero(best_gain > 1e-12)[0]
    mv_v = vid[movers]
    mv_lab = best_lab[movers]
    rank = np.lexsort((mv_v, -best_gain[movers]))
    take = int(movers.shape[0])
    while take > 0:
        sel = rank[:take]
        cand = labels.copy()
        cand[mv_v[sel]] = mv_lab[sel]
        q_new = q_of(cand)
        if q_new > q:
            return cand, q_new, take
        take //= 2
    return labels, q, 0


def _sweep_loop(
    labels: np.ndarray,
    q: float,
    sweep: Callable[[np.ndarray, float], tuple[np.ndarray, float, int]],
    max_passes: int,
    start: int = 0,
    on_sweep: Optional[Callable[[np.ndarray, float, int], None]] = None,
) -> tuple[np.ndarray, float, int, int]:
    """The local-moving loop of every pLA driver (Algorithm 3's
    refinement): ``sweep(labels, q) -> (labels, q, n_moved)`` runs for
    passes ``start .. max_passes - 1`` until one moves nothing.

    ``on_sweep(labels, q, pass_no)`` sees the state after each sweep
    that moved something (``sharded_pla`` logs it as a checkpoint
    record; a resumed run passes the logged ``pass_no`` as ``start``).
    Returns ``(labels, q, n_sweeps, n_moved)``.
    """
    n_sweeps = n_moved = 0
    for p in range(start, max_passes):
        labels, q, moved = sweep(labels, q)
        n_sweeps += 1
        n_moved += moved
        if moved == 0:
            break
        if on_sweep is not None:
            on_sweep(labels, q, p + 1)
    return labels, q, n_sweeps, n_moved


def _local_moving_refinement(
    graph: Graph,
    labels: np.ndarray,
    W: float,
    max_passes: int,
    ctx: ParallelContext,
    movable: Optional[np.ndarray] = None,
    span: str = "sweep",
    **span_attrs,
) -> tuple[np.ndarray, float, int, int]:
    """Move single vertices to the adjacent cluster of highest ΔQ.

    The gain of moving v from cluster c to cluster d is

        ΔQ = (w(v→d) − w(v→c∖v)) / W
             − k_v · (s_d − s_c + k_v) / (2W²)

    Runs :func:`_sweep_loop` with the in-core sweep: each synchronized
    sweep is one charged parallel phase in a ``span`` span.  Only the
    vertices of the boolean mask ``movable`` move (default: all).  The
    level's invariants (strengths, loopless arcs, the Q evaluator) are
    built here, once.  Returns ``_sweep_loop``'s tuple.
    """
    n = graph.n_vertices
    labels = np.asarray(labels, dtype=np.int64).copy()
    strength_v = _vertex_strengths(graph)
    src, tgt, w = _loopless_arcs(graph)
    # charged work: every arc in a full sweep, the swept arcs in a
    # localized one (as the pinned cost profiles record them)
    work = graph.n_arcs
    if movable is not None:
        keep = movable[src]
        src, tgt, w = src[keep], tgt[keep], w[keep]
        work = src.shape[0]
    max_deg = float(graph.degrees().max()) if n else 1.0
    tr = ctx.tracer
    q_of = modularity_evaluator(graph)

    def sweep(labels: np.ndarray, q: float) -> tuple[np.ndarray, float, int]:
        ctx.cost.region()
        ctx.cost.phase(float(max(1, work)), max(1.0, max_deg))
        with tr.span(span, **span_attrs, n_vertices=n) if tr else _noop():
            labels, q, moved = _guarded_sweep(
                labels, strength_v, q, q_of,
                lambda S: _best_moves(labels, strength_v, S, W, src, tgt, w),
            )
        ctx.cost.cas(moved)
        return labels, q, moved

    return _sweep_loop(labels, q_of(labels), sweep, max_passes)


def _multilevel_pla(
    graph: Graph,
    W: float,
    *,
    max_passes: int,
    ctx: ParallelContext,
) -> ClusteringResult:
    """Multilevel fast path: synchronized sweeps + contraction (Louvain).

    Modularity is exactly preserved by :func:`contract` (self-loops
    carry intra-cluster weight), so the per-level sweeps keep optimizing
    the *fine-graph* objective; the sweep guard makes Q monotone end to
    end.
    """
    labels, n_levels, n_sweeps = _coarsen(graph, W, max_passes, ctx)
    # Uncoarsening refinement: a final round of sweeps on the fine graph
    # recovers the quality lost to coarse-level move granularity.
    labels, *_ = _local_moving_refinement(graph, labels, W, max_passes, ctx)
    return _multilevel_result(
        labels, modularity_evaluator(graph), n_levels, n_sweeps
    )


def _multilevel_result(
    labels: np.ndarray,
    q_of: Callable[[np.ndarray], float],
    n_levels: int,
    n_sweeps: int,
) -> ClusteringResult:
    """The multilevel result, in core or sharded: ``labels`` renumbered
    densely and scored by ``q_of``."""
    labels = np.unique(labels, return_inverse=True)[1].astype(np.int64)
    return ClusteringResult(
        labels,
        q_of(labels),
        "pLA",
        extras={
            "multilevel": True,
            "n_levels": n_levels,
            "n_sweeps": n_sweeps,
        },
    )


def _coarsen(
    graph: Graph, W: float, max_passes: int, ctx: ParallelContext, level: int = 0
) -> tuple[np.ndarray, int, int]:
    """The multilevel level loop: sweep ``graph`` (hierarchy level
    ``level``) from singletons, then contract and repeat until a level
    merges nothing or one vertex is left.

    Returns ``(labels, n_contractions, n_sweeps)`` with the coarsest
    level's labels projected back onto ``graph``'s vertices.  Also the
    in-core tail of ``sharded_pla``, which enters it at level 1.
    """
    tr = ctx.tracer
    g = graph
    labels_g = np.arange(g.n_vertices, dtype=np.int64)
    level_maps: list[np.ndarray] = []
    n_sweeps = 0
    with (tr.span("coarsen") if tr else _noop()):
        while True:
            labels_g, _, swept, _ = _local_moving_refinement(
                g, labels_g, W, max_passes, ctx, level=level + len(level_maps)
            )
            n_sweeps += swept
            n_clusters = int(distinct(labels_g).shape[0])
            if n_clusters == g.n_vertices:
                break  # no merge at this level: hierarchy converged
            with (
                tr.span(
                    "contract-level",
                    level=level + len(level_maps),
                    n_fine=g.n_vertices,
                    n_coarse=n_clusters,
                )
                if tr
                else _noop()
            ):
                g, vmap = contract(g, labels_g)
            ctx.cost.serial(float(max(1, g.n_arcs)))
            level_maps.append(vmap)
            labels_g = np.arange(g.n_vertices, dtype=np.int64)
            if g.n_vertices <= 1:
                break
    labels = labels_g
    for vmap in reversed(level_maps):
        labels = labels[vmap]
    return labels, len(level_maps), n_sweeps
