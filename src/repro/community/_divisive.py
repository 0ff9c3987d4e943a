"""Shared engine for divisive (edge-removal) clustering.

Both Girvan–Newman and pBD follow the same iteration (paper Alg. 1):

1. find the edge with the highest (exact or approximate) betweenness,
2. mark it deleted in the graph (an :class:`EdgeSubsetView` mask),
3. update connected components and the dendrogram,
4. compute modularity of the current partition,

differing only in *how* step 1's scores are produced.  The engine also
implements the two SNAP engineering levers:

* **localized rescoring** — deleting an edge only perturbs shortest
  paths inside its own component, so only that component's edges are
  rescored ("only recompute approximate betweenness scores of the known
  high-centrality edges");
* **incremental component tracking** — a deletion either leaves its
  component intact (checked with one intra-component BFS) or splits it
  in two, which :class:`ModularityTracker` absorbs in O(|component|).

``patience`` counts *substantial splits* (not deletions) since the best
modularity: modularity only changes when a component splits, and the
Q-over-splits curve is near-unimodal for small-world networks, so a
handful of non-improving splits is a reliable past-the-peak signal.
Pendant shears (splits of ≤ 2 vertices) are ignored by the counter —
but a hub-dominated graph can produce *only* pendant shears, so a
second guard, ``max_stall`` (deletions without any improvement,
default ``50 · patience``), bounds the march regardless.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.community.dendrogram import DivisiveTrace
from repro.community.modularity import ModularityTracker
from repro.errors import ClusteringError, GraphStructureError
from repro.graph.csr import EdgeSubsetView, Graph
from repro.kernels.bfs import bfs
from repro.kernels.connected import connected_components
from repro.kernels.segments import distinct
from repro.parallel.runtime import ParallelContext, ensure_context

# score_fn(view, component_vertices, ctx) -> per-edge scores for the
# component's edges (full-length array; entries outside the component
# are ignored by the engine).
ScoreFn = Callable[[EdgeSubsetView, np.ndarray, ParallelContext], np.ndarray]

NEG = -np.inf


def divisive_clustering(
    graph: Graph,
    score_fn: ScoreFn,
    *,
    algorithm: str,
    ctx: Optional[ParallelContext] = None,
    max_iterations: Optional[int] = None,
    patience: Optional[int] = None,
    max_stall: Optional[int] = None,
    bridge_prepass: bool = False,
) -> tuple[DivisiveTrace, np.ndarray, float, ParallelContext]:
    """Run the divisive loop; returns (trace, best labels, best Q, ctx)."""
    if max_stall is None and patience is not None:
        max_stall = 50 * patience
    if graph.directed:
        raise GraphStructureError("community detection requires an undirected graph")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if n == 0:
        raise ClusteringError("cannot cluster an empty graph")
    view = graph.view()
    labels0 = connected_components(graph, ctx=ctx)
    tracker = ModularityTracker(graph, labels0)
    trace = DivisiveTrace(initial_score=tracker.modularity())
    trace.best_score = trace.initial_score
    trace.best_labels_snapshot = tracker.labels.copy()

    u_arr, v_arr = graph.edge_endpoints()
    scores = np.full(graph.n_edges, NEG, dtype=np.float64)

    # Initial scoring, one component at a time (concurrently in SNAP).
    comp_list = [
        np.nonzero(labels0 == c)[0] for c in distinct(labels0)
    ]
    for members in comp_list:
        if members.shape[0] < 2:
            continue
        _rescore(view, members, score_fn, scores, tracker.labels, u_arr, ctx)

    if bridge_prepass:
        _pin_bridge_scores(graph, view, scores, ctx)

    best_q = trace.initial_score
    splits_since_best = 0
    deletions_since_best = 0
    it = 0
    limit = graph.n_edges if max_iterations is None else min(
        max_iterations, graph.n_edges
    )
    while it < limit and view.n_active_edges > 0:
        e = int(np.argmax(scores))
        if scores[e] == NEG:
            break
        u, v = int(u_arr[e]), int(v_arr[e])
        view.deactivate(e)
        scores[e] = NEG
        # --- component update: did the deletion split u's component? ---
        lab = int(tracker.labels[u])
        res = bfs(view, u, ctx=ctx)
        reached_mask = res.reached
        if not reached_mask[v]:
            members = np.nonzero(tracker.labels == lab)[0]
            side_u = members[reached_mask[members]]
            side_v = members[~reached_mask[members]]
            tracker.split(side_u, side_v)
            affected = [side_u, side_v]
        else:
            affected = [np.nonzero(tracker.labels == lab)[0]]
        q = tracker.modularity()
        trace.record(e, q, tracker.labels)
        # --- localized rescoring of the affected component(s) ---
        for members in affected:
            if members.shape[0] < 2:
                continue
            _rescore(view, members, score_fn, scores, tracker.labels, u_arr, ctx)
        it += 1
        if q > best_q + 1e-12:
            best_q = q
            splits_since_best = 0
            deletions_since_best = 0
        else:
            deletions_since_best += 1
            if len(affected) == 2 and min(
                affected[0].shape[0], affected[1].shape[0]
            ) > 2:
                # Only splits can change Q, and only *substantial* splits
                # signal the peak — shearing off a pendant vertex or edge
                # barely moves Q and happens in long runs on skewed graphs.
                splits_since_best += 1
                if patience is not None and splits_since_best >= patience:
                    break
            if max_stall is not None and deletions_since_best >= max_stall:
                break

    labels = (
        trace.best_labels_snapshot
        if trace.best_labels_snapshot is not None
        else tracker.labels
    )
    return trace, labels, max(best_q, trace.initial_score), ctx


def _rescore(
    view: EdgeSubsetView,
    members: np.ndarray,
    score_fn: ScoreFn,
    scores: np.ndarray,
    labels: np.ndarray,
    u_arr: np.ndarray,
    ctx: ParallelContext,
) -> None:
    """Replace the scores of the component's active edges."""
    fresh = score_fn(view, members, ctx)
    lab = labels[members[0]]
    comp_edges = np.nonzero(
        (labels[u_arr] == lab) & view.active
    )[0]
    scores[comp_edges] = fresh[comp_edges]


def _pin_bridge_scores(
    graph: Graph,
    view: EdgeSubsetView,
    scores: np.ndarray,
    ctx: ParallelContext,
) -> None:
    """Optional step 1 of Algorithm 1: bridges have *exact* betweenness
    |A|·|B| (all paths between the sides cross them); pin those values so
    the first deletions need no sampling at all."""
    from repro.kernels.biconnected import biconnected_components

    res = biconnected_components(view, ctx=ctx)
    u_arr, v_arr = graph.edge_endpoints()
    for e in res.bridges:
        masked = EdgeSubsetView(graph, view.active)
        masked.deactivate(int(e))
        side = bfs(masked, int(u_arr[e]), ctx=ctx)
        a = side.n_reached
        # the other side of the bridge within u's original component
        full = bfs(view, int(u_arr[e]), ctx=ctx)
        b = full.n_reached - a
        scores[e] = float(a * b)
