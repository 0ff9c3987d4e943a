"""Degree centrality — "a simple local measure based on the notion of
neighborhood ... useful for finding vertices that have the most direct
connections to other vertices" (paper §2.1)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels._frontier import GraphLike, unwrap
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context


@algorithm("degree")
def degree_centrality(
    g: GraphLike,
    *,
    normalized: bool = True,
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Per-vertex degree centrality.

    ``normalized`` divides by ``n - 1`` (the maximum possible degree in
    a simple graph), matching the conventional definition.  Edge masks
    are honoured (deleted edges do not count).
    """
    graph, edge_active = unwrap(g)
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if edge_active is None:
        deg = graph.degrees().astype(np.float64)
    else:
        keep = edge_active[graph.arc_edge_ids]
        deg = np.bincount(
            graph.arc_sources()[keep], minlength=n
        ).astype(np.float64)
    ctx.cost.phase(float(max(n, graph.n_arcs)), 1.0)
    if normalized and n > 1:
        deg /= n - 1
    return deg
