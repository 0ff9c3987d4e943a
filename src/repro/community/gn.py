"""Girvan–Newman divisive clustering (paper refs [37, 36]) — the
baseline pBD is measured against.

Each iteration recomputes *exact* edge betweenness (restricted to the
perturbed component — an exact-preserving optimization, since deleting
an edge cannot change shortest paths in other components) and removes
the top edge.  O(m) iterations of O(nm) work: the O(n³)-for-sparse
complexity the paper quotes, and why it is "compute-intensive".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.centrality.betweenness import brandes
from repro.community._divisive import divisive_clustering
from repro.community.modularity import modularity
from repro.community.result import ClusteringResult
from repro.graph.csr import EdgeSubsetView, Graph
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext


@algorithm("girvan_newman")
def girvan_newman(
    graph: Graph,
    *,
    max_iterations: Optional[int] = None,
    patience: Optional[int] = None,
    max_stall: Optional[int] = None,
    batch_size: Optional[int] = None,
    ctx: Optional[ParallelContext] = None,
) -> ClusteringResult:
    """Exact edge-betweenness divisive clustering.

    ``patience`` stops the run after that many component *splits*
    without a modularity improvement (the full run removes every edge);
    the best partition seen is returned either way.

    Each iteration's exact edge-betweenness recomputation is a
    fine-grained run of the batched Brandes engine (``batch_size`` is
    forwarded to :func:`~repro.centrality.betweenness.brandes`); the
    batches execute on ``ctx``'s configured backend, and the modeled
    profile is the same on each.
    """

    def score(view: EdgeSubsetView, members: np.ndarray, c: ParallelContext):
        return brandes(
            view, sources=members.tolist(), batch_size=batch_size, ctx=c
        ).edge

    trace, labels, _, ctx = divisive_clustering(
        graph,
        score,
        algorithm="GN",
        ctx=ctx,
        max_iterations=max_iterations,
        patience=patience,
        max_stall=max_stall,
    )
    return ClusteringResult(
        labels,
        modularity(graph, labels),
        "GN",
        extras={"trace": trace, "n_deletions": trace.n_steps},
    )
