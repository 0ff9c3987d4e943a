"""Construction of CSR graphs from edge lists and other sources.

The builders perform the one-time costs (validation, self-loop removal,
deduplication, adjacency sorting, arc→edge-id mapping) so that
:class:`repro.graph.csr.Graph` can stay immutable and cheap.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import GraphStructureError
from repro.graph.csr import EDGE_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE, Graph


def from_edge_array(
    n_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    weights: Optional[np.ndarray] = None,
    directed: bool = False,
    dedupe: bool = True,
    drop_self_loops: bool = True,
) -> Graph:
    """Build a CSR :class:`Graph` from parallel source/target arrays.

    Parameters
    ----------
    n_vertices:
        Number of vertices ``n``; all ids must lie in ``[0, n)``.
    src, dst:
        Integer arrays of equal length giving the edge endpoints.
    weights:
        Optional per-edge weights.  Duplicate edges keep the weight of
        their first occurrence when ``dedupe`` is true.
    directed:
        Directed graphs store one arc per edge; undirected graphs store
        two arcs sharing a canonical edge id.
    dedupe:
        Remove duplicate edges (and reversed duplicates for undirected
        graphs).
    drop_self_loops:
        Remove ``u == v`` edges; self-loops contribute nothing to the
        paper's kernels and complicate modularity bookkeeping.
    """
    n = int(n_vertices)
    if n < 0:
        raise GraphStructureError("n_vertices must be non-negative")
    src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
    dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphStructureError("src and dst must be equal-length 1-D arrays")
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=WEIGHT_DTYPE)
        if weights.shape != src.shape:
            raise GraphStructureError("weights must align with src/dst")
    if src.shape[0]:
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0 or hi >= n:
            raise GraphStructureError(
                f"edge endpoint out of range [0, {n}): saw [{lo}, {hi}]"
            )

    if drop_self_loops and src.shape[0]:
        keep = src != dst
        if not keep.all():
            src, dst = src[keep], dst[keep]
            if weights is not None:
                weights = weights[keep]

    if directed:
        return _build_directed(n, src, dst, weights, dedupe)
    return _build_undirected(n, src, dst, weights, dedupe)


def _pair_order(major: np.ndarray, minor: np.ndarray, n_minor: int) -> np.ndarray:
    """``kernels.segments.pair_order``, imported on first use, so that
    ``import repro.graph`` loads no kernel module."""
    from repro.kernels.segments import pair_order

    return pair_order(major, minor, n_minor)


def _first_of_each(key: np.ndarray) -> np.ndarray:
    """Index of each distinct ``key``'s first occurrence, in key order:
    one default-kind (SIMD) argsort, then each equal run's least index."""
    order = np.argsort(key)  # keys are >= 0: -1 opens the first run
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    return np.minimum.reduceat(order, starts)


def _build_directed(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
    dedupe: bool,
) -> Graph:
    # Deduplicated keys come out in ascending order: already CSR order.
    order = (_first_of_each(src * n + dst) if dedupe and src.shape[0]
             else _pair_order(src, dst, n))
    src, dst = src[order], dst[order]
    if weights is not None:
        weights = weights[order]
    offsets = np.zeros(n + 1, dtype=EDGE_DTYPE)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return Graph(offsets, dst, directed=True, weights=weights, validate=False)


def _build_undirected(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
    dedupe: bool,
) -> Graph:
    # Canonicalize endpoints so (u, v) and (v, u) collide.
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    if dedupe and u.shape[0]:
        first = np.sort(_first_of_each(u * n + v))  # ids in input order
        u, v = u[first], v[first]
        if weights is not None:
            weights = weights[first]
    m = u.shape[0]
    edge_ids = np.arange(m, dtype=EDGE_DTYPE)
    # Materialize both arc directions.
    arc_src = np.concatenate([u, v])
    arc_dst = np.concatenate([v, u])
    arc_eid = np.concatenate([edge_ids, edge_ids])
    arc_w = None if weights is None else np.concatenate([weights, weights])
    # Deduplicated arc keys are unique, so any sort is the stable one.
    order = (np.argsort(arc_src * n + arc_dst) if dedupe
             else _pair_order(arc_src, arc_dst, n))
    arc_src, arc_dst, arc_eid = arc_src[order], arc_dst[order], arc_eid[order]
    if arc_w is not None:
        arc_w = arc_w[order]
    offsets = np.zeros(n + 1, dtype=EDGE_DTYPE)
    np.cumsum(np.bincount(arc_src, minlength=n), out=offsets[1:])
    return Graph(
        offsets,
        arc_dst,
        directed=False,
        weights=arc_w,
        arc_edge_ids=arc_eid,
        n_edges=m,
        validate=False,
    )


def merge_edges(base: Graph, add: tuple, delete: tuple) -> Graph:
    """``base`` with the ``delete`` edges ``(u, v)`` (all present)
    removed and the ``add`` edges ``(u, v, w)`` (all absent) inserted,
    every pair with ``u < v``.  ``base`` is an undirected CSR as
    :func:`from_edge_array` builds it from edges in canonical order;
    the result is, in every array, the one it would build from the
    surviving edges, without a sort of ``base``.  It is unweighted while
    ``base`` is and every added weight is 1.
    """
    n, m = base.n_vertices, base.n_edges
    src, tgt, eid = base.arc_sources(), base.targets, base.arc_edge_ids
    key = src * n + tgt  # ascending: arcs are in (source, target) order
    du, dv = delete
    ends = np.concatenate([du, dv]), np.concatenate([dv, du])
    dead = np.sort(np.searchsorted(key, ends[0] * n + ends[1]))
    gone = np.sort(eid[np.searchsorted(key, du * n + dv)])  # dead edge ids
    order = np.argsort(add[0] * n + add[1])
    au, av, aw = (x[order] for x in add)
    # q: old edges ranked below each added one, i.e. (u, v) arcs before it
    below = np.zeros(key.shape[0] + 1, dtype=EDGE_DTYPE)
    np.cumsum(src < tgt, out=below[1:])
    q = below[np.searchsorted(key, au * n + av)]
    new_id = np.cumsum(np.bincount(q, minlength=m + 1)[:m]
                       - np.bincount(gone, minlength=m) + 1) - 1
    a_id = q - np.searchsorted(gone, q) + np.arange(q.shape[0])
    # one gather lays the kept arcs and the added ones out in key order
    a_src, a_tgt = np.concatenate([au, av]), np.concatenate([av, au])
    a_order = np.argsort(a_src * n + a_tgt)
    at = np.searchsorted(key, (a_src * n + a_tgt)[a_order])
    at += np.arange(at.shape[0]) - np.searchsorted(dead, at)
    take = np.empty(key.shape[0] - dead.shape[0] + at.shape[0], dtype=np.intp)
    is_old = np.ones(take.shape[0], dtype=bool)
    is_old[at] = False
    take[at] = key.shape[0] + a_order
    take[is_old] = np.delete(np.arange(key.shape[0]), dead)
    offsets = np.zeros(n + 1, dtype=EDGE_DTYPE)
    np.cumsum(np.diff(base.offsets) - np.bincount(ends[0], minlength=n)
              + np.bincount(a_src, minlength=n), out=offsets[1:])
    return Graph(
        offsets,
        np.concatenate([tgt, a_tgt])[take],
        directed=False,
        weights=(None if base.weights is None and (aw == 1.0).all()
                 else np.concatenate([base.arc_weights(), aw, aw])[take]),
        arc_edge_ids=np.concatenate([new_id[eid], a_id, a_id])[take],
        n_edges=m - gone.shape[0] + q.shape[0],
        validate=False,
    )


def from_edge_list(
    edges: Iterable[tuple[int, int] | tuple[int, int, float]],
    *,
    n_vertices: Optional[int] = None,
    directed: bool = False,
    dedupe: bool = True,
) -> Graph:
    """Build a graph from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples.

    ``n_vertices`` defaults to ``max id + 1``.
    """
    rows = list(edges)
    if not rows:
        return from_edge_array(
            n_vertices or 0,
            np.empty(0, dtype=VERTEX_DTYPE),
            np.empty(0, dtype=VERTEX_DTYPE),
            directed=directed,
        )
    has_w = len(rows[0]) == 3
    src = np.fromiter((r[0] for r in rows), dtype=VERTEX_DTYPE, count=len(rows))
    dst = np.fromiter((r[1] for r in rows), dtype=VERTEX_DTYPE, count=len(rows))
    w = (
        np.fromiter((r[2] for r in rows), dtype=WEIGHT_DTYPE, count=len(rows))
        if has_w
        else None
    )
    if n_vertices is None:
        n_vertices = int(max(src.max(), dst.max())) + 1
    return from_edge_array(
        n_vertices, src, dst, weights=w, directed=directed, dedupe=dedupe
    )


def induced_subgraph(
    graph: Graph, vertices: Sequence[int] | np.ndarray
) -> tuple[Graph, np.ndarray]:
    """Subgraph induced by ``vertices``.

    Returns ``(subgraph, original_ids)`` where ``original_ids[i]`` is the
    vertex of ``graph`` that became vertex ``i`` of the subgraph.  Used by
    pBD/pLA when switching to coarse-grained per-component processing.
    """
    from repro.kernels.segments import distinct

    vertices = distinct(np.asarray(vertices, dtype=VERTEX_DTYPE))
    if vertices.shape[0] and (
        vertices[0] < 0 or vertices[-1] >= graph.n_vertices
    ):
        raise GraphStructureError("subgraph vertex out of range")
    remap = np.full(graph.n_vertices, -1, dtype=VERTEX_DTYPE)
    remap[vertices] = np.arange(vertices.shape[0], dtype=VERTEX_DTYPE)
    src = graph.arc_sources()
    keep = (remap[src] >= 0) & (remap[graph.targets] >= 0)
    if not graph.directed:
        keep &= src <= graph.targets  # one arc per edge
    s, d = remap[src[keep]], remap[graph.targets[keep]]
    w = None if graph.weights is None else graph.weights[keep]
    sub = from_edge_array(
        vertices.shape[0], s, d, weights=w, directed=graph.directed, dedupe=False
    )
    return sub, vertices


def compress_vertices(graph: Graph, labels: np.ndarray) -> Graph:
    """Contract vertices with equal ``labels`` into super-vertices.

    Parallel edges are merged and their weights summed; resulting
    self-loops are dropped.  Used by the multilevel partitioner's
    coarsening and by pLA's cluster amalgamation.
    """
    labels = np.asarray(labels, dtype=VERTEX_DTYPE)
    if labels.shape[0] != graph.n_vertices:
        raise GraphStructureError("labels must have one entry per vertex")
    uniq, dense = np.unique(labels, return_inverse=True)
    k = uniq.shape[0]
    src = dense[graph.arc_sources()]
    dst = dense[graph.targets]
    w = graph.arc_weights()
    if not graph.directed:
        keep = src <= dst
        src, dst, w = src[keep], dst[keep], w[keep]
    loop = src == dst
    src, dst, w = src[~loop], dst[~loop], w[~loop]
    if src.shape[0] == 0:
        return from_edge_array(k, src, dst, directed=graph.directed)
    # Merge parallel edges, summing weights in stable (src, dst) order.
    from repro.kernels.segments import grouped_label_weights

    src, dst, merged_w = grouped_label_weights(src, dst, w)
    return from_edge_array(
        k, src, dst, weights=merged_w, directed=graph.directed, dedupe=False
    )


def contract(graph: Graph, labels: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Coarsen a partition into a weighted coarse graph, keeping loops.

    Unlike :func:`compress_vertices` (partitioning coarsening, which
    drops self-loops), ``contract`` preserves intra-cluster weight as
    coarse *self-loops*, which makes modularity invariant under
    contraction:

        ``modularity(graph, labels) == modularity(coarse, arange(k))``

    exactly — the multilevel community fast path depends on this to
    keep its per-level ΔQ bookkeeping equal to the fine-graph ΔQ.
    A self-loop of weight ``w`` is stored as two identical arcs sharing
    one edge id, so the super-vertex strength comes out as ``2w`` —
    the Louvain convention the modularity kernel already implements.

    Runs in one sort pass over the canonical edge array — the one-chunk
    case of :func:`contract_chunks`.  Returns ``(coarse, vertex_map)``
    where ``vertex_map[v]`` is the coarse vertex id (densified label)
    of fine vertex ``v``.
    """
    if graph.directed:
        raise GraphStructureError("contract requires an undirected graph")
    u, v = graph.edge_endpoints()
    return contract_chunks(
        labels, graph.n_vertices, [(u, v, graph.edge_weights())]
    )


def contract_chunks(
    labels: np.ndarray,
    n_vertices: int,
    chunks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[Graph, np.ndarray]:
    """:func:`contract` over an edge stream read in ``(u, v, w)``
    chunks, in edge-id order.

    Each chunk's coarse edges are merged together with the ones carried
    from the chunks before, each carried edge leading its group, so
    every merged weight is summed in the one-pass stable (lo, hi) order
    and the coarse graph is bit-identical however the stream is cut.
    """
    from repro.kernels.segments import grouped_label_weights

    labels = np.asarray(labels, dtype=VERTEX_DTYPE)
    if labels.shape[0] != n_vertices:
        raise GraphStructureError("labels must have one entry per vertex")
    _, vertex_map = np.unique(labels, return_inverse=True)
    vertex_map = vertex_map.astype(VERTEX_DTYPE)
    k = int(vertex_map.max()) + 1 if vertex_map.shape[0] else 0
    lo = hi = np.empty(0, dtype=VERTEX_DTYPE)
    merged_w = np.empty(0, dtype=WEIGHT_DTYPE)
    for i, (u, v, w) in enumerate(chunks):
        cu, cv = vertex_map[u], vertex_map[v]
        part = [np.minimum(cu, cv), np.maximum(cu, cv), w]
        if i:
            part = [np.concatenate(p) for p in zip((lo, hi, merged_w), part)]
        # One sort pass: merge parallel coarse edges (self-loops kept),
        # summing weights in stable (lo, hi) order.
        lo, hi, merged_w = grouped_label_weights(*part)
    coarse = from_edge_array(
        k, lo, hi, weights=merged_w if lo.shape[0] else None,
        directed=False, dedupe=False, drop_self_loops=False,
    )
    return coarse, vertex_map


def from_networkx(nx_graph) -> Graph:
    """Convert a ``networkx`` graph (test/interop convenience).

    Vertices are relabelled to ``0..n-1`` in iteration order; ``weight``
    edge attributes are preserved when present on every edge.
    """
    nodes = list(nx_graph.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    edges = list(nx_graph.edges(data=True))
    src = np.fromiter((index[e[0]] for e in edges), dtype=VERTEX_DTYPE, count=len(edges))
    dst = np.fromiter((index[e[1]] for e in edges), dtype=VERTEX_DTYPE, count=len(edges))
    if edges and all("weight" in e[2] for e in edges):
        w = np.fromiter((e[2]["weight"] for e in edges), dtype=WEIGHT_DTYPE, count=len(edges))
    else:
        w = None
    return from_edge_array(
        len(nodes), src, dst, weights=w, directed=nx_graph.is_directed()
    )


def to_networkx(graph: Graph):
    """Convert to a ``networkx`` graph (test/interop convenience)."""
    import networkx as nx

    g = nx.DiGraph() if graph.directed else nx.Graph()
    g.add_nodes_from(range(graph.n_vertices))
    u, v = graph.edge_endpoints()
    w = graph.edge_weights()
    g.add_weighted_edges_from(zip(u.tolist(), v.tolist(), w.tolist()))
    return g
