"""Clauset–Newman–Moore greedy agglomeration (paper ref [15]).

The O(m d log n) reference algorithm pMA re-engineers: start from
singletons, repeatedly merge the community pair with the largest
modularity gain

    ΔQ(a, b) = w_ab / W − s_a · s_b / (2W²)

maintained in per-community sparse rows plus a global max-heap.  This
implementation is the *plain* dict-and-heap version; pMA (Algorithm 2)
performs the identical greedy optimization with SNAP's data structures,
and the test suite asserts the two produce the same merge sequence.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.community.dendrogram import Dendrogram
from repro.community.modularity import modularity
from repro.community.result import ClusteringResult
from repro.errors import ClusteringError, GraphStructureError
from repro.graph.csr import Graph
from repro.kernels.segments import group_offsets, segment_sums
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context


@algorithm("cnm")
def cnm(
    graph: Graph,
    *,
    ctx: Optional[ParallelContext] = None,
) -> ClusteringResult:
    """Greedy modularity agglomeration; returns the best-prefix cut.

    Merges continue while any connected pair exists (disconnected
    communities can never raise modularity by merging, and w_ab = 0
    pairs are not tracked), tracking the best modularity seen.
    Deterministic: ties on ΔQ break toward the smallest ``(a, b)`` pair.
    """
    if graph.directed:
        raise GraphStructureError("community detection requires an undirected graph")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if n == 0:
        raise ClusteringError("cannot cluster an empty graph")
    W = float(graph.edge_weights().sum())
    if W == 0.0:
        labels = np.arange(n, dtype=np.int64)
        return ClusteringResult(labels, 0.0, "CNM")

    # One grouped pass over the (already (src, tgt)-sorted) arc arrays
    # builds every community row and the initial heap: arcs collapse to
    # per-(src, tgt) weight sums (a self-loop's two arcs sum to the 2w
    # the per-edge loop accumulated), rows are dict(zip) slices, and
    # the a < b gains vectorize — the same IEEE expression as ``dq``,
    # in the same (a, b)-sorted order the scalar build produced.
    src = graph.arc_sources()
    tgt = graph.targets
    w_all = graph.arc_weights()
    strength = np.bincount(src, weights=w_all, minlength=n)
    offs = group_offsets(src, tgt)
    firsts = offs[:-1]
    gsrc, gtgt = src[firsts], tgt[firsts]
    gw = segment_sums(w_all, offs)

    rows: list[dict[int, float]] = [dict() for _ in range(n)]
    voffs = group_offsets(gsrc)
    for i in range(voffs.shape[0] - 1):
        lo, hi = int(voffs[i]), int(voffs[i + 1])
        rows[int(gsrc[lo])] = dict(
            zip(gtgt[lo:hi].tolist(), gw[lo:hi].tolist())
        )
    alive = np.ones(n, dtype=bool)

    def dq(a: int, b: int) -> float:
        return rows[a][b] / W - strength[a] * strength[b] / (2.0 * W * W)

    pair = gsrc < gtgt
    gains = gw[pair] / W - strength[gsrc[pair]] * strength[gtgt[pair]] / (
        2.0 * W * W
    )
    heap: list[tuple[float, int, int]] = list(
        zip((-gains).tolist(), gsrc[pair].tolist(), gtgt[pair].tolist())
    )
    heapq.heapify(heap)
    ctx.cost.serial(float(2 * graph.n_edges))

    q = modularity(graph, np.arange(n))
    dendro = Dendrogram(n, initial_score=q)
    while heap:
        neg, a, b = heapq.heappop(heap)
        if not (alive[a] and alive[b]) or b not in rows[a]:
            continue
        gain = dq(a, b)
        if -neg != gain:  # stale entry: ΔQ changed since push
            heapq.heappush(heap, (-gain, a, b))
            continue
        # Merge b into a.
        q += gain
        alive[b] = False
        row_b = rows[b]
        rows[b] = {}
        del rows[a][b]
        del row_b[a]
        for x, w in row_b.items():
            rows[x].pop(b, None)
            rows[a][x] = rows[a].get(x, 0.0) + w
            rows[x][a] = rows[a][x]
        strength[a] += strength[b]
        strength[b] = 0.0
        for x in rows[a]:
            lo, hi = (a, x) if a < x else (x, a)
            heapq.heappush(heap, (-dq(lo, hi), lo, hi))
        ctx.cost.serial(float(len(row_b) + len(rows[a]) + 1))
        dendro.record(a, b, q)

    step = dendro.best_step()
    labels = dendro.labels_at(step)
    return ClusteringResult(
        labels,
        modularity(graph, labels),
        "CNM",
        extras={"dendrogram": dendro},
    )
