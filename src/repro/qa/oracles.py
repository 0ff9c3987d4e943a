"""Obviously-correct pure-Python reference implementations.

Every optimized kernel in this package has a vectorized NumPy hot path
whose correctness is not self-evident (scatter-min hooks, lexicographic
tie-break ranks, batched lane planes).  The oracles here are the other
half of the differential-testing contract: textbook implementations on
plain dicts, lists and heaps, written for readability rather than
speed, and deliberately independent of :mod:`repro.graph` — they take a
raw ``(n_vertices, edge list)`` pair and do their *own* canonicalization
(self-loop dropping, duplicate-edge collapsing), so a bug in the CSR
builder cannot hide by corrupting both sides equally.

Conventions match the optimized entrypoints they check:

* distances use ``-1`` (hops) / ``inf`` (weighted) for unreachable;
* component labels are the minimum vertex id of the component;
* betweenness counts each unordered pair once on undirected graphs
  (the networkx unnormalized convention);
* closeness is Wasserman–Faust improved, 0.0 for isolated vertices.

The last section holds *retired hot paths* (:func:`kway_refine_rescan`,
:func:`triangle_counts_arcloop`, :func:`dynamic_to_csr_loop`,
:func:`pla_best_moves_runwalk`): the per-vertex / per-edge code a fast
path replaced, kept over ``Graph`` / CSR arrays as its pin.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import GraphStructureError
from repro.graph.csr import Graph
from repro.kernels._frontier import GraphLike, unwrap

__all__ = [
    "RefGraph",
    "bfs_levels",
    "dijkstra_distances",
    "brandes_betweenness",
    "connected_components",
    "msf_weight",
    "modularity",
    "edge_cut",
    "closeness",
    "kway_refine_rescan",
    "triangle_counts_arcloop",
    "dynamic_to_csr_loop",
    "pla_best_moves_runwalk",
]


class RefGraph:
    """Minimal adjacency-dict graph used by every oracle.

    ``edges`` is any iterable of ``(u, v)`` or ``(u, v, w)`` tuples.
    Canonicalization mirrors the documented builder semantics: self
    loops are dropped, duplicate (unordered, for undirected) edges keep
    their first occurrence's weight.
    """

    def __init__(self, n_vertices: int, edges: Iterable, *, directed: bool = False):
        self.n = int(n_vertices)
        self.directed = bool(directed)
        # adjacency: vertex -> {neighbor: weight}
        self.adj: list[dict[int, float]] = [dict() for _ in range(self.n)]
        self.edges: list[tuple[int, int, float]] = []
        seen: set[tuple[int, int]] = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            w = float(e[2]) if len(e) > 2 else 1.0
            if u == v:
                continue
            key = (u, v) if directed else (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            self.edges.append((key[0], key[1], w) if not directed else (u, v, w))
            self.adj[u][v] = w
            if not directed:
                self.adj[v][u] = w

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> list[int]:
        return sorted(self.adj[v])


def bfs_levels(ref: RefGraph, source: int) -> list[int]:
    """Hop distance from ``source`` per vertex; -1 when unreachable."""
    dist = [-1] * ref.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in ref.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def dijkstra_distances(ref: RefGraph, source: int) -> list[float]:
    """Weighted shortest-path distance per vertex; inf when unreachable."""
    inf = float("inf")
    dist = [inf] * ref.n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in ref.adj[u].items():
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def brandes_betweenness(
    ref: RefGraph,
    *,
    weighted: bool = False,
    sources: Optional[Iterable[int]] = None,
) -> tuple[list[float], dict[tuple[int, int], float]]:
    """Exact unnormalized vertex and edge betweenness (textbook Brandes).

    Returns ``(vertex_scores, edge_scores)``; edge scores are keyed by
    the edge's ``ref.edges`` endpoint pair.  Dependencies accumulate
    from ``sources`` only (default: every vertex).  Undirected graphs
    count each unordered pair once (accumulated both directions, halved
    at the end).  ``weighted=True`` orders the forward sweep by Dijkstra
    settlement instead of BFS levels.
    """
    bc = [0.0] * ref.n
    ebc = {(u, v): 0.0 for u, v, _ in ref.edges}
    for s in range(ref.n) if sources is None else sources:
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(ref.n)]
        sigma = [0.0] * ref.n
        sigma[s] = 1.0
        if weighted:
            inf = float("inf")
            dist = [inf] * ref.n
            dist[s] = 0.0
            seen = [False] * ref.n
            heap = [(0.0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if seen[u]:
                    continue
                seen[u] = True
                stack.append(u)
                for v, w in ref.adj[u].items():
                    nd = d + w
                    if nd < dist[v] - 1e-12:
                        dist[v] = nd
                        sigma[v] = sigma[u]
                        preds[v] = [u]
                        heapq.heappush(heap, (nd, v))
                    elif abs(nd - dist[v]) <= 1e-12 and not seen[v]:
                        sigma[v] += sigma[u]
                        preds[v].append(u)
        else:
            dist = [-1] * ref.n
            dist[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                stack.append(u)
                for v in ref.neighbors(u):
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        q.append(v)
                    if dist[v] == dist[u] + 1:
                        sigma[v] += sigma[u]
                        preds[v].append(u)
        delta = [0.0] * ref.n
        while stack:
            v = stack.pop()
            for u in preds[v]:
                c = sigma[u] / sigma[v] * (1.0 + delta[v])
                delta[u] += c
                ebc[(u, v) if ref.directed or u < v else (v, u)] += c
            if v != s:
                bc[v] += delta[v]
    if not ref.directed:
        bc = [x / 2.0 for x in bc]
        ebc = {e: x / 2.0 for e, x in ebc.items()}
    return bc, ebc


def connected_components(ref: RefGraph) -> list[int]:
    """Component label per vertex; the label is the min vertex id.

    Directed graphs yield *weakly* connected components (arcs walked
    both ways), matching the optimized kernel.
    """
    sym: list[set[int]] = [set(d) for d in ref.adj]
    if ref.directed:
        for u, v, _ in ref.edges:
            sym[v].add(u)
    label = [-1] * ref.n
    for s in range(ref.n):
        if label[s] >= 0:
            continue
        label[s] = s
        q = deque([s])
        while q:
            u = q.popleft()
            for v in sym[u]:
                if label[v] < 0:
                    label[v] = s
                    q.append(v)
    return label


def msf_weight(ref: RefGraph) -> float:
    """Total weight of a minimum spanning forest (textbook Kruskal).

    MSF weight is unique even with tied weights, which makes it a
    robust oracle: any correct MSF algorithm must match it exactly.
    """
    parent = list(range(ref.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    for w, _, u, v in sorted(
        (w, i, u, v) for i, (u, v, w) in enumerate(ref.edges)
    ):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
    return total


def modularity(ref: RefGraph, labels: Sequence[int]) -> float:
    """Newman modularity of a vertex partition, by the double sum.

    ``q = Σ_c [ w_in(c)/W − (s(c)/2W)² ]`` with ``W`` total edge weight,
    ``w_in`` intra-cluster weight and ``s`` cluster strength.
    """
    if ref.m == 0:
        return 0.0
    total_w = sum(w for _, _, w in ref.edges)
    intra: dict[int, float] = {}
    strength: dict[int, float] = {}
    for u, v, w in ref.edges:
        cu, cv = labels[u], labels[v]
        if cu == cv:
            intra[cu] = intra.get(cu, 0.0) + w
        strength[cu] = strength.get(cu, 0.0) + w
        strength[cv] = strength.get(cv, 0.0) + w
    q = sum(intra.values()) / total_w
    q -= sum((s / (2.0 * total_w)) ** 2 for s in strength.values())
    return q


def edge_cut(ref: RefGraph, labels: Sequence[int]) -> float:
    """Total weight of edges whose endpoints have different labels."""
    return sum(w for u, v, w in ref.edges if labels[u] != labels[v])


def local_clustering(ref: RefGraph) -> list[float]:
    """Local clustering coefficient per vertex, by set intersection.

    ``C(v) = triangles(v) / (deg(v) choose 2)``; 0.0 for degree < 2.
    """
    sets = [set(ref.adj[v]) - {v} for v in range(ref.n)]
    out = [0.0] * ref.n
    for v in range(ref.n):
        d = len(sets[v])
        if d < 2:
            continue
        # each triangle through v appears once per incident neighbor
        t2 = sum(len(sets[v] & sets[u]) for u in sets[v])
        out[v] = (t2 / 2.0) / (d * (d - 1) / 2.0)
    return out


def closeness(ref: RefGraph) -> list[float]:
    """Wasserman–Faust improved closeness per vertex.

    ``cc(v) = (r−1)/Σd · (r−1)/(n−1)`` with ``r`` the number of
    vertices reachable from ``v`` (including ``v``); 0.0 when nothing
    else is reachable.  Weighted graphs use Dijkstra distances.
    """
    weighted = any(w != 1.0 for _, _, w in ref.edges)
    out = [0.0] * ref.n
    for v in range(ref.n):
        if weighted:
            dist = dijkstra_distances(ref, v)
            reach = [d for d in dist if d != float("inf")]
        else:
            dist = [float(d) for d in bfs_levels(ref, v)]
            reach = [d for d in dist if d >= 0]
        r = len(reach)
        total = sum(reach)
        if r <= 1 or total <= 0:
            continue
        cc = (r - 1) / total
        if ref.n > 1:
            cc *= (r - 1) / (ref.n - 1)
        out[v] = cc
    return out


# ---------------------------------------------------------------------------
# Retired hot paths (regression references over repro Graphs)
# ---------------------------------------------------------------------------
def _vertex_part_weights(graph: Graph, v: int, parts: np.ndarray, k: int) -> np.ndarray:
    """Weight of v's edges into each part."""
    out = np.zeros(k, dtype=np.float64)
    np.add.at(out, parts[graph.neighbors(v)], graph.neighbor_weights(v))
    return out


def kway_refine_rescan(
    graph: Graph,
    parts: np.ndarray,
    k: int,
    *,
    vertex_weights: Optional[np.ndarray] = None,
    max_imbalance: float = 1.05,
    max_passes: int = 8,
) -> np.ndarray:
    """Original exhaustive-rescan k-way refinement (regression oracle).

    Recomputes every boundary vertex's connection weights each pass.
    Kept verbatim so tests can pin ``partitioning.refine.kway_refine``'s
    dirty-set fast path to the identical partition.
    """
    n = graph.n_vertices
    parts = np.asarray(parts, dtype=np.int64).copy()
    vw = (
        np.ones(n, dtype=np.float64)
        if vertex_weights is None
        else np.asarray(vertex_weights, dtype=np.float64)
    )
    limit = max_imbalance * float(vw.sum()) / k
    weight = np.bincount(parts, weights=vw, minlength=k)

    for _ in range(max_passes):
        moved = 0
        src = graph.arc_sources()
        boundary = np.unique(src[parts[src] != parts[graph.targets]])
        for v in boundary:
            v = int(v)
            pw = _vertex_part_weights(graph, v, parts, k)
            own = int(parts[v])
            pw_own = pw[own]
            pw[own] = -np.inf
            tgt = int(np.argmax(pw))
            gain = pw[tgt] - pw_own
            if gain > 1e-12 and weight[tgt] + vw[v] <= limit:
                weight[own] -= vw[v]
                weight[tgt] += vw[v]
                parts[v] = tgt
                moved += 1
        if moved == 0:
            break

    for _ in range(max_passes):
        over_mask = weight > limit + 1e-9
        if not over_mask.any():
            break
        moved = 0
        src = graph.arc_sources()
        is_boundary = np.zeros(n, dtype=bool)
        cross = parts[src] != parts[graph.targets]
        is_boundary[np.unique(src[cross])] = True
        cand = np.nonzero(over_mask[parts])[0]
        order = cand[np.lexsort((vw[cand], ~is_boundary[cand]))]
        for v in order:
            v = int(v)
            own = int(parts[v])
            if weight[own] <= limit + 1e-9:
                continue
            pw = _vertex_part_weights(graph, v, parts, k)
            pw[own] = -np.inf
            headroom = weight + vw[v] <= limit
            headroom[own] = False
            if not headroom.any():
                continue
            pw[~headroom] = -np.inf
            tgt = int(np.argmax(pw))
            weight[own] -= vw[v]
            weight[tgt] += vw[v]
            parts[v] = tgt
            moved += 1
        if moved == 0:
            break
    return parts


def triangle_counts_arcloop(g: GraphLike) -> np.ndarray:
    """Triangles through each vertex by a per-edge ``np.intersect1d`` loop.

    The pre-§1.2c hot path of ``metrics.clustering.triangle_counts``,
    kept for the equivalence tests and the microbenchmark baseline.
    """
    graph, edge_active = unwrap(g)
    if graph.directed:
        raise GraphStructureError("triangle counting requires an undirected graph")
    n = graph.n_vertices
    tri = np.zeros(n, dtype=np.int64)
    if graph.n_edges == 0:
        return tri

    def neigh(v: int) -> np.ndarray:
        if edge_active is None:
            return graph.neighbors(v)
        lo, hi = graph.arc_range(v)
        mask = edge_active[graph.arc_edge_ids[lo:hi]]
        return graph.targets[lo:hi][mask]

    u_arr, v_arr = graph.edge_endpoints()
    if edge_active is not None:
        u_arr, v_arr = u_arr[edge_active], v_arr[edge_active]
    for i in range(u_arr.shape[0]):
        u, v = int(u_arr[i]), int(v_arr[i])
        common = np.intersect1d(neigh(u), neigh(v), assume_unique=True)
        c = common.shape[0]
        if c:
            tri[u] += c
            tri[v] += c
            np.add.at(tri, common, 1)
    return tri // 3


def dynamic_to_csr_loop(dyn) -> Graph:
    """``DynamicGraph.to_csr`` as the per-vertex loop its one-``concatenate``
    snapshot replaced; the arrays of the two must be bit-identical."""
    from repro.graph import builder
    from repro.kernels.segments import pair_order

    n = dyn.n_vertices
    src, dst, w = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for u in range(n):
        adj = dyn.neighbors(u)
        keep = adj > u  # one direction per edge
        src.append(np.full(int(keep.sum()), u, dtype=adj.dtype))
        dst.append(adj[keep])
        w.append(dyn.neighbor_weights(u)[keep])
    src, dst, w = (np.concatenate(a) for a in (src, dst, w))
    order = pair_order(src, dst, n)
    return builder.from_edge_array(
        n, src[order], dst[order], weights=w[order] if dyn.is_weighted else None,
        directed=False, dedupe=False,
    )


def pla_best_moves_runwalk(
    labels: np.ndarray,
    strength_v: np.ndarray,
    S: np.ndarray,
    W: float,
    src: np.ndarray,
    tgt: np.ndarray,
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """pLA's best-move scan as a scalar walk over CSR source runs.

    The twin of ``community.pla._best_moves`` that shares nothing with
    it (no ``pair_order``, no segmented reductions): each vertex's
    weight into every adjacent label accumulates in arc order, ΔQ uses
    the same parenthesization, and ties break max-gain-then-smallest-
    label, so ``(vid, best_lab, best_gain)`` must match element for
    element.  ``src`` must be nondecreasing (CSR arc order, self-loops
    removed); ``best_lab = -1`` / ``best_gain = -inf`` marks a vertex
    with no cross-label candidate.
    """
    m = src.shape[0]
    if m and bool(np.any(src[1:] < src[:-1])):
        raise ValueError("pla_best_moves_runwalk: src must be nondecreasing")
    denom = 2.0 * W * W
    vid, best_lab, best_gain = [], [], []
    i = 0
    while i < m:
        v = src[i]
        acc: dict[int, float] = {}
        while i < m and src[i] == v:
            lab = int(labels[tgt[i]])
            acc[lab] = acc.get(lab, 0.0) + w[i]
            i += 1
        own = int(labels[v])
        kv = strength_v[v]
        own_s = S[own]
        w_own = acc.get(own, 0.0)
        bg, bl = -np.inf, -1
        for lab, w_lab in acc.items():
            if lab == own:
                continue
            gain = (w_lab - w_own) / W - kv * (S[lab] - (own_s - kv)) / denom
            if gain > bg or (gain == bg and lab < bl):
                bg, bl = gain, lab
        vid.append(v)
        best_lab.append(bl)
        best_gain.append(bg)
    return (
        np.asarray(vid, dtype=np.int64),
        np.asarray(best_lab, dtype=np.int64),
        np.asarray(best_gain, dtype=np.float64),
    )
