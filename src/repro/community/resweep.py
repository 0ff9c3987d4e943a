"""Localized pLA re-sweep for streaming community maintenance.

Full multilevel re-clustering after every ingestion batch throws away
the previous partition; the streaming engine instead *repairs* it:
warm-start from the previous labels, let only vertices near the touched
set move (restricted synchronized sweeps over the arcs incident to the
touched ball), then settle with the same global local-moving refinement
single-level :func:`~repro.community.pla.pla` finishes with.

Both phases are :func:`~repro.community.pla._local_moving_refinement`
(the localized one restricted to the ball's vertices, in ``resweep``
spans), so they run the one pLA sweep loop, whose monotone guard only
ever applies a move prefix that increases Q — so the repaired
partition's modularity is non-decreasing from the warm start, and the
settle phase leaves it at the same sweep-local optimum a fresh run
converges to.  The prefix-differential harness asserts the resulting Q
is no worse than a full single-level re-run per batch.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.community.modularity import modularity_evaluator
from repro.community.pla import _local_moving_refinement
from repro.community.result import ClusteringResult
from repro.errors import ClusteringError, GraphStructureError
from repro.graph.csr import Graph
from repro.kernels._frontier import vertex_ids
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context

__all__ = ["local_resweep"]


def _touched_ball(
    graph: Graph, touched: Sequence[int], radius: int
) -> np.ndarray:
    """Boolean mask of vertices within ``radius`` hops of ``touched``."""
    allowed = np.zeros(graph.n_vertices, dtype=bool)
    idx = vertex_ids(touched, graph.n_vertices, "touched vertex")
    if idx.shape[0] == 0:
        return allowed
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

    ``labels`` is the warm-start partition (default: all singletons),
    any non-negative integer ids;
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
        # any ids; renumbered densely, which is monotone, so it changes
        # no move, gain or tie-break
        raw = np.asarray(labels)
        if raw.shape != (n,):
            raise GraphStructureError(f"labels shape {raw.shape} != ({n},)")
        if raw.dtype.kind not in "biuf" or not np.all((raw >= 0) & (raw % 1 == 0)):
            raise GraphStructureError("labels must be non-negative integers")
        labels = np.unique(raw, return_inverse=True)[1].astype(np.int64)
    W = float(graph.edge_weights().sum())
    if W == 0.0:
        return ClusteringResult(labels, 0.0, "pLA-resweep")

    allowed = (
        np.ones(n, dtype=bool)
        if touched is None
        else _touched_ball(graph, touched, radius)
    )
    n_allowed = int(allowed.sum())
    q_of = modularity_evaluator(graph)
    q_start = q_of(labels)
    labels, _, _, n_local = _local_moving_refinement(
        graph, labels, W, max_passes, ctx,
        movable=allowed, span="resweep", n_allowed=n_allowed,
    )
    if settle:
        labels, *_ = _local_moving_refinement(graph, labels, W, max_passes, ctx)
    labels = np.unique(labels, return_inverse=True)[1].astype(np.int64)
    return ClusteringResult(
        labels,
        q_of(labels),
        "pLA-resweep",
        extras={
            "q_start": q_start,
            "n_local_moves": n_local,
            "n_allowed": n_allowed,
        },
    )
