"""pMA — modularity-maximizing agglomerative clustering (Algorithm 2).

Performs the *same greedy optimization* as Clauset–Newman–Moore but
with SNAP's data representations (paper §4):

* each community's ΔQ row is a **sorted dynamic array** (``ΔQd[v]``) —
  vectorized NumPy arrays kept sorted by neighbor id, so row merges are
  single vectorized unions ("the matrix rows representing the two
  communities are merged in parallel");
* each row also feeds a **multi-level bucket** (``ΔQb[v]``) for O(1)
  identification of the row's largest gain;
* a global **max-heap** ``H`` holds each row's best pair; every row
  mutation pushes the row's fresh maximum, so the heap top is always
  the true global maximum (stale entries are skipped on pop).

Per iteration the two row phases (merge, neighbor updates) are recorded
as barrier-separated parallel phases; these phases are *small* (row
degrees), which is exactly why pMA's parallel speedup saturates lower
than pBD/pLA in the paper's Figure 2 — fine-grained parallelism at the
level of a single greedy step.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.community.buckets import MultiLevelBucket
from repro.community.dendrogram import Dendrogram
from repro.community.modularity import modularity
from repro.community.result import ClusteringResult
from repro.errors import ClusteringError, GraphStructureError
from repro.graph.csr import Graph
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context


@dataclass
class _Row:
    """Sorted dynamic array of (neighbor community, inter-weight)."""

    keys: np.ndarray
    weights: np.ndarray

    @classmethod
    def empty(cls) -> "_Row":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def get(self, key: int) -> float:
        i = int(np.searchsorted(self.keys, key))
        if i < len(self) and int(self.keys[i]) == key:
            return float(self.weights[i])
        return 0.0

    def delete(self, key: int) -> None:
        i = int(np.searchsorted(self.keys, key))
        if i < len(self) and int(self.keys[i]) == key:
            self.keys = np.delete(self.keys, i)
            self.weights = np.delete(self.weights, i)

    def upsert(self, key: int, weight: float) -> None:
        i = int(np.searchsorted(self.keys, key))
        if i < len(self) and int(self.keys[i]) == key:
            self.weights[i] = weight
        else:
            self.keys = np.insert(self.keys, i, key)
            self.weights = np.insert(self.weights, i, weight)

    @staticmethod
    def merged(a: "_Row", b: "_Row") -> "_Row":
        """Vectorized union with weight addition (the parallel merge)."""
        keys = np.concatenate([a.keys, b.keys])
        weights = np.concatenate([a.weights, b.weights])
        if keys.shape[0] == 0:
            return _Row.empty()
        order = np.argsort(keys, kind="stable")
        keys, weights = keys[order], weights[order]
        first = np.empty(keys.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        group = np.cumsum(first) - 1
        sums = np.bincount(group, weights=weights)
        return _Row(keys[first], sums)


@algorithm("pma")
def pma(
    graph: Graph,
    *,
    ctx: Optional[ParallelContext] = None,
) -> ClusteringResult:
    """Parallel agglomerative clustering, best-prefix cut returned."""
    if graph.directed:
        raise GraphStructureError("community detection requires an undirected graph")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if n == 0:
        raise ClusteringError("cannot cluster an empty graph")
    W = float(graph.edge_weights().sum())
    if W == 0.0:
        labels = np.arange(n, dtype=np.int64)
        return ClusteringResult(labels, 0.0, "pMA")

    arc_src = graph.arc_sources()
    w_all = graph.arc_weights()
    strength = np.bincount(arc_src, weights=w_all, minlength=n)

    # Build per-community sorted rows straight off the CSR arrays, and
    # every initial ΔQ in one vectorized arc pass (sliced per row) —
    # elementwise the same IEEE expression the per-row build evaluated.
    gains_all = w_all / W - strength[arc_src] * strength[graph.targets] / (
        2.0 * W * W
    )
    rows: list[_Row] = []
    alive = np.ones(n, dtype=bool)

    def dq(a: int, b: int, w_ab: float) -> float:
        return w_ab / W - strength[a] * strength[b] / (2.0 * W * W)

    # ΔQb[v]: per-row multi-level bucket over the row's gains, plus a
    # cached per-row maximum so the bucket is only rescanned when its
    # top entry is invalidated.
    buckets: list[MultiLevelBucket] = []
    row_max: list[Optional[tuple[int, float]]] = [None] * n
    heap: list[tuple[float, int, int]] = []
    for a in range(n):
        lo_a, hi_a = graph.arc_range(a)
        keys = graph.targets[lo_a:hi_a].copy()
        rows.append(_Row(keys, w_all[lo_a:hi_a].copy()))
        bk = MultiLevelBucket()
        bk.bulk_build(keys, gains_all[lo_a:hi_a])
        buckets.append(bk)
        top = bk.max()
        if top is not None:
            x, gain = top
            row_max[a] = (int(x), float(gain))
            lo, hi = (a, int(x)) if a < x else (int(x), a)
            heap.append((-gain, lo, hi))
    heapq.heapify(heap)
    ctx.cost.serial(float(2 * graph.n_edges))

    def push_pair(a: int, x: int, gain: float) -> None:
        lo, hi = (a, x) if a < x else (x, a)
        heapq.heappush(heap, (-gain, lo, hi))

    def refresh_row_max(a: int) -> None:
        """Rescan row a's bucket and queue its maximum."""
        top = buckets[a].max()
        if top is None:
            row_max[a] = None
            return
        x, gain = top
        row_max[a] = (int(x), float(gain))
        push_pair(a, int(x), float(gain))

    def note_removed(a: int, key: int) -> None:
        """Row a lost ``key``; rescan only if it was the cached max."""
        cached = row_max[a]
        if cached is not None and cached[0] == key:
            refresh_row_max(a)

    def note_updated(a: int, key: int, gain: float) -> None:
        """Row a's entry for ``key`` changed to ``gain``."""
        cached = row_max[a]
        if cached is None or gain >= cached[1] or cached[0] == key:
            if cached is not None and cached[0] == key and gain < cached[1]:
                # the max itself decreased: a full rescan is needed
                refresh_row_max(a)
            else:
                row_max[a] = (key, gain)
                push_pair(a, key, gain)

    q = modularity(graph, np.arange(n))
    dendro = Dendrogram(n, initial_score=q)
    n_communities = n

    while n_communities > 1 and heap:
        neg, a, b = heapq.heappop(heap)
        if not (alive[a] and alive[b]):
            continue
        w_ab = rows[a].get(b)
        if w_ab == 0.0:
            continue
        gain = dq(a, b, w_ab)
        if -neg != gain:  # stale; the fresh row max is already queued
            continue
        # ----- merge b into a -----
        q += gain
        alive[b] = False
        n_communities -= 1
        rows[a].delete(b)
        rows[b].delete(a)
        buckets[a].remove(b)
        buckets[b].remove(a)
        row_max[b] = None
        row_b = rows[b]
        merged = _Row.merged(rows[a], row_b)
        # Phase 1: parallel row merge (vectorized union), flag-synced —
        # only the updating workers need to hand off, not all p.
        ctx.cost.phase(float(max(1, len(rows[a]) + len(row_b))), 1.0, flag_sync=True)
        strength[a] += strength[b]
        strength[b] = 0.0
        rows[a] = merged
        rows[b] = _Row.empty()
        buckets[b] = MultiLevelBucket()
        # Rebuild a's bucket from the merged row (vectorized gains).
        gains = (
            merged.weights / W
            - strength[a] * strength[merged.keys] / (2.0 * W * W)
        )
        bk = MultiLevelBucket()
        bk.bulk_build(merged.keys, gains)
        buckets[a] = bk
        # Phase 2: parallel neighbor updates (each ΔQ row of a neighbor
        # of the merged pair is touched independently); the global heap
        # inserts are batched into one serialized section per iteration.
        ctx.cost.phase(float(max(1, len(merged))), 1.0, flag_sync=True)
        ctx.cost.serial(float(np.log2(max(2, len(heap) + 1))))
        ctx.cost.lock(1)
        for i in range(len(merged)):
            x = int(merged.keys[i])
            w_ax = float(merged.weights[i])
            rows[x].delete(b)
            if b in buckets[x]:
                buckets[x].remove(b)
                note_removed(x, b)
            gain_xa = dq(x, a, w_ax)
            rows[x].upsert(a, w_ax)
            buckets[x].insert(a, gain_xa)
            note_updated(x, a, gain_xa)
        refresh_row_max(a)
        dendro.record(a, b, q)

    step = dendro.best_step()
    labels = dendro.labels_at(step)
    return ClusteringResult(
        labels,
        modularity(graph, labels),
        "pMA",
        extras={
            "dendrogram": dendro,
            "n_merges": dendro.n_steps,
        },
    )
