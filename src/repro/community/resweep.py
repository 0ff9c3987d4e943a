"""Localized pLA re-sweep for streaming community maintenance.

Full multilevel re-clustering after every ingestion batch throws away
the previous partition; the streaming engine instead *repairs* it:
warm-start from the previous labels, let only vertices near the touched
set move (restricted synchronized sweeps over the arcs incident to the
touched ball), then settle with the same global local-moving refinement
single-level :func:`~repro.community.pla.pla` finishes with.

Both phases reuse :func:`~repro.community.pla._sweep_once`, whose
monotone guard only ever applies a move prefix that increases Q — so
the repaired partition's modularity is non-decreasing from the warm
start, and the settle phase leaves it at the same sweep-local optimum a
fresh run converges to.  The prefix-differential harness asserts the
resulting Q is no worse than a full single-level re-run per batch.
"""

from __future__ import annotations

from contextlib import nullcontext as _noop
from typing import Optional, Sequence

import numpy as np

from repro.community.modularity import modularity_evaluator
from repro.community.pla import (
    _local_moving_refinement,
    _loopless_arcs,
    _sweep_once,
    _vertex_strengths,
)
from repro.community.result import ClusteringResult
from repro.errors import ClusteringError, GraphStructureError
from repro.graph.csr import Graph
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context

__all__ = ["local_resweep"]


def _touched_ball(
    graph: Graph, touched: Sequence[int], radius: int
) -> np.ndarray:
    """Boolean mask of vertices within ``radius`` hops of ``touched``."""
    n = graph.n_vertices
    allowed = np.zeros(n, dtype=bool)
    idx = np.asarray(list(touched), dtype=np.int64)
    if idx.shape[0] == 0:
        return allowed
    if idx.min() < 0 or idx.max() >= n:
        raise GraphStructureError(
            f"touched vertex out of range [0, {n})"
        )
    allowed[idx] = True
    src = graph.arc_sources()
    tgt = graph.targets
    for _ in range(radius):
        before = int(allowed.sum())
        allowed[tgt[allowed[src]]] = True
        if int(allowed.sum()) == before:
            break
    return allowed


@algorithm("local_resweep")
def local_resweep(
    graph: Graph,
    *,
    labels: Optional[np.ndarray] = None,
    touched: Optional[Sequence[int]] = None,
    radius: int = 1,
    max_passes: int = 16,
    settle: bool = True,
    ctx: Optional[ParallelContext] = None,
) -> ClusteringResult:
    """Repair a partition around ``touched`` vertices; Q never regresses.

    ``labels`` is the warm-start partition (default: all singletons);
    ``touched`` seeds the repair region (default: every vertex, which
    degenerates to plain refinement).  ``radius`` grows the region by
    that many hops.  ``settle`` runs the global refinement pass after
    the localized sweeps (recommended — it is what makes the result
    comparable to a fresh single-level run).
    """
    if graph.directed:
        raise GraphStructureError(
            "community detection requires an undirected graph"
        )
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if n == 0:
        raise ClusteringError("cannot cluster an empty graph")
    if labels is None:
        labels = np.arange(n, dtype=np.int64)
    else:
        labels = np.asarray(labels, dtype=np.int64).copy()
        if labels.shape != (n,):
            raise GraphStructureError(
                f"labels shape {labels.shape} != ({n},)"
            )

    W = float(graph.edge_weights().sum())
    if W == 0.0:
        labels = np.unique(labels, return_inverse=True)[1].astype(np.int64)
        return ClusteringResult(labels, 0.0, "pLA-resweep")

    allowed = (
        np.ones(n, dtype=bool)
        if touched is None
        else _touched_ball(graph, touched, radius)
    )
    strength_v = _vertex_strengths(graph)
    src, tgt, w = _loopless_arcs(graph)
    keep = allowed[src]
    src_f, tgt_f, w_f = src[keep], tgt[keep], w[keep]

    tr = ctx.tracer
    q_of = modularity_evaluator(graph)
    q = q_start = q_of(labels)
    n_local = 0
    degs = graph.degrees()
    max_deg = float(degs.max()) if n else 1.0
    for _ in range(max_passes):
        ctx.cost.region()
        ctx.phase(float(max(1, src_f.shape[0])), max(1.0, max_deg))
        with (
            tr.span("resweep", n_allowed=int(allowed.sum())) if tr else _noop()
        ):
            labels, q, moved = _sweep_once(
                labels, strength_v, W, q, src_f, tgt_f, w_f, q_of
            )
        ctx.cas(moved)
        n_local += moved
        if moved == 0:
            break
    if settle:
        labels, _ = _local_moving_refinement(graph, labels, W, max_passes, ctx)
    labels = np.unique(labels, return_inverse=True)[1].astype(np.int64)
    q = q_of(labels)
    return ClusteringResult(
        labels,
        q,
        "pLA-resweep",
        extras={
            "q_start": q_start,
            "n_local_moves": n_local,
            "n_allowed": int(allowed.sum()),
        },
    )
