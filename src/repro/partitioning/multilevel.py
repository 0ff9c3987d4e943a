"""Multilevel graph partitioning à la METIS (paper refs [26, 27]).

The three classic phases:

1. **Coarsening** — heavy-edge matching (HEM): visit vertices in random
   order, match each with its unmatched neighbor of maximum edge
   weight, contract matched pairs.  Repeats until the graph is small.
2. **Initial partitioning** — greedy graph growing on the coarsest
   graph: BFS-grow a region to half the vertex weight from the best of
   several random seeds, then FM-refine.
3. **Uncoarsening** — project the partition up the hierarchy, running
   FM (bisection) / greedy k-way refinement at every level.

``multilevel_recursive_bisection`` is the pmetis analogue (recursive
2-way splits); ``multilevel_kway`` is the kmetis analogue (one
hierarchy, direct k-way refinement).
"""

from __future__ import annotations

from contextlib import nullcontext as _noop
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import PartitioningError
from repro.graph.builder import compress_vertices, from_edge_array, induced_subgraph
from repro.graph.csr import Graph, VERTEX_DTYPE
from repro.kernels.bfs import bfs
from repro.obs.api import algorithm
from repro.obs.tracer import current_tracer
from repro.partitioning.metrics import edge_cut, validate_partition
from repro.partitioning.refine import fm_refine_bisection, kway_refine
from repro.parallel.runtime import ParallelContext, ensure_context


@dataclass
class _Level:
    graph: Graph
    vertex_weights: np.ndarray
    fine_to_coarse: Optional[np.ndarray]  # None at the finest level


def _heavy_edge_matching(graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Fine→coarse mapping from one round of heavy-edge matching."""
    n = graph.n_vertices
    # call-local plain lists: the loop reads every arc one scalar at a
    # time, several times cheaper than numpy scalar indexing
    offs = graph.offsets.tolist()
    tgts = graph.targets.tolist()
    wts = None if graph.weights is None else graph.weights.tolist()
    match = [-1] * n
    for v in rng.permutation(n).tolist():
        if match[v] >= 0:
            continue
        best, best_w = -1, -1.0
        for i in range(offs[v], offs[v + 1]):
            u = tgts[i]
            if match[u] >= 0 or u == v:
                continue
            w = 1.0 if wts is None else wts[i]
            if w > best_w:
                best, best_w = u, w
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    # Coarse ids: one per matched pair / singleton, numbered in order of
    # the smaller endpoint.
    lower = np.minimum(np.arange(n, dtype=np.int64), np.asarray(match, dtype=np.int64))
    return np.unique(lower, return_inverse=True)[1].astype(np.int64)


def _coarsen(
    graph: Graph,
    *,
    coarsest_size: int,
    rng: np.random.Generator,
    max_levels: int = 32,
    vertex_weights: Optional[np.ndarray] = None,
) -> list[_Level]:
    if vertex_weights is None:
        vertex_weights = np.ones(graph.n_vertices, dtype=np.float64)
    levels = [_Level(graph, np.asarray(vertex_weights, dtype=np.float64), None)]
    tr = current_tracer()
    while (
        levels[-1].graph.n_vertices > coarsest_size and len(levels) < max_levels
    ):
        cur = levels[-1]
        sp = (
            tr.begin(
                "coarsen_level",
                level=len(levels) - 1,
                n_vertices=cur.graph.n_vertices,
                n_edges=cur.graph.n_edges,
            )
            if tr
            else None
        )
        mapping = _heavy_edge_matching(cur.graph, rng)
        n_coarse = int(mapping.max()) + 1
        if n_coarse >= cur.graph.n_vertices:  # no contraction possible
            if sp is not None:
                tr.end(sp, n_coarse=n_coarse, contracted=False)
            break
        coarse_graph = compress_vertices(cur.graph, mapping)
        cw = np.bincount(mapping, weights=cur.vertex_weights, minlength=n_coarse)
        levels.append(_Level(coarse_graph, cw, mapping))
        if sp is not None:
            tr.end(sp, n_coarse=n_coarse, contracted=True)
        if n_coarse > 0.95 * cur.graph.n_vertices:
            break  # matching stalled (e.g. star graphs)
    return levels


def _greedy_grow_bisection(
    graph: Graph,
    vertex_weights: np.ndarray,
    rng: np.random.Generator,
    n_tries: int = 4,
) -> np.ndarray:
    """Initial bisection by BFS region growing from random seeds."""
    n = graph.n_vertices
    if n == 0:
        return np.zeros(0, dtype=bool)
    half = float(vertex_weights.sum()) / 2.0
    vw = vertex_weights.tolist()
    best_side: Optional[np.ndarray] = None
    best_cut = np.inf
    for t in range(n_tries):
        seed = int(rng.integers(0, n))
        side = np.zeros(n, dtype=bool)
        # BFS order from the seed, claim until half the weight
        res = bfs(graph, seed)
        order = np.argsort(
            np.where(res.distances < 0, np.iinfo(np.int64).max, res.distances),
            kind="stable",
        )
        acc = 0.0
        for v in order.tolist():
            if acc >= half:
                break
            side[v] = True
            acc += vw[v]
        side = fm_refine_bisection(
            graph, side, vertex_weights=vertex_weights
        )
        cut = edge_cut(graph, side.astype(np.int64))
        if cut < best_cut:
            best_cut, best_side = cut, side
    assert best_side is not None
    return best_side


@algorithm("multilevel_bisection")
def multilevel_bisection(
    graph: Graph,
    *,
    rng: Optional[np.random.Generator] = None,
    max_imbalance: float = 1.05,
    vertex_weights: Optional[np.ndarray] = None,
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Single multilevel 2-way split; returns a boolean side array."""
    ctx = ensure_context(ctx)
    rng = rng or np.random.default_rng(0)
    n = graph.n_vertices
    if n <= 1:
        return np.zeros(n, dtype=bool)
    tr = ctx.tracer
    with (tr.span("coarsen") if tr else _noop()):
        levels = _coarsen(
            graph, coarsest_size=max(64, 2), rng=rng,
            vertex_weights=vertex_weights,
        )
    ctx.cost.serial(float(sum(l.graph.n_arcs for l in levels)))
    with (
        tr.span("initial_partition", n_coarse=levels[-1].graph.n_vertices)
        if tr
        else _noop()
    ):
        side = _greedy_grow_bisection(
            levels[-1].graph, levels[-1].vertex_weights, rng
        )
    for lvl in range(len(levels) - 1, 0, -1):
        mapping = levels[lvl].fine_to_coarse
        assert mapping is not None
        side = side[mapping]
        sp = (
            tr.begin(
                "refine_level",
                level=lvl - 1,
                n_vertices=levels[lvl - 1].graph.n_vertices,
            )
            if tr
            else None
        )
        side = fm_refine_bisection(
            levels[lvl - 1].graph,
            side,
            vertex_weights=levels[lvl - 1].vertex_weights,
            max_imbalance=max_imbalance,
        )
        if sp is not None:
            tr.end(sp)
    return side


@algorithm("multilevel_recursive_bisection", operands=1)
def multilevel_recursive_bisection(
    graph: Graph,
    k: int,
    *,
    rng: Optional[np.random.Generator] = None,
    max_imbalance: float = 1.05,
    vertex_weights: Optional[np.ndarray] = None,
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """pmetis-style k-way partition by recursive multilevel bisection."""
    _check_k(graph, k)
    ctx = ensure_context(ctx)
    rng = rng or np.random.default_rng(0)
    parts = np.zeros(graph.n_vertices, dtype=np.int64)
    vw_all = (
        np.ones(graph.n_vertices, dtype=np.float64)
        if vertex_weights is None
        else np.asarray(vertex_weights, dtype=np.float64)
    )

    def recurse(vertices: np.ndarray, sub: Graph, k_here: int, base: int) -> None:
        if k_here == 1 or sub.n_vertices <= 1:
            parts[vertices] = base
            return
        k_left = k_here // 2
        # weight-proportional split: grow side to k_left/k_here of total
        side = multilevel_bisection(
            sub, rng=rng, max_imbalance=max_imbalance,
            vertex_weights=vw_all[vertices], ctx=ctx
        )
        left = vertices[~side]
        right = vertices[side]
        if left.shape[0] == 0 or right.shape[0] == 0:
            # degenerate split: fall back to round-robin halves
            half = vertices.shape[0] // 2
            left, right = vertices[:half], vertices[half:]
        sub_l, _ = induced_subgraph(graph, left)
        sub_r, _ = induced_subgraph(graph, right)
        recurse(left, sub_l, k_left, base)
        recurse(right, sub_r, k_here - k_left, base + k_left)

    recurse(np.arange(graph.n_vertices, dtype=VERTEX_DTYPE), graph, k, 0)
    return parts


@algorithm("multilevel_kway", operands=1)
def multilevel_kway(
    graph: Graph,
    k: int,
    *,
    rng: Optional[np.random.Generator] = None,
    max_imbalance: float = 1.05,
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """kmetis-style partition: coarsen once, k-way refine on the way up."""
    _check_k(graph, k)
    ctx = ensure_context(ctx)
    rng = rng or np.random.default_rng(0)
    tr = ctx.tracer
    with (tr.span("coarsen") if tr else _noop()):
        levels = _coarsen(graph, coarsest_size=max(20 * k, 128), rng=rng)
    ctx.cost.serial(float(sum(l.graph.n_arcs for l in levels)))
    coarsest = levels[-1]
    with (
        tr.span("initial_partition", n_coarse=coarsest.graph.n_vertices)
        if tr
        else _noop()
    ):
        labels = multilevel_recursive_bisection(
            coarsest.graph, k, rng=rng, max_imbalance=max_imbalance,
            vertex_weights=coarsest.vertex_weights,
        )
        labels = kway_refine(
            coarsest.graph,
            labels,
            k,
            vertex_weights=coarsest.vertex_weights,
            max_imbalance=max_imbalance,
        )
    for lvl in range(len(levels) - 1, 0, -1):
        mapping = levels[lvl].fine_to_coarse
        assert mapping is not None
        labels = labels[mapping]
        sp = (
            tr.begin(
                "refine_level",
                level=lvl - 1,
                n_vertices=levels[lvl - 1].graph.n_vertices,
            )
            if tr
            else None
        )
        labels = kway_refine(
            levels[lvl - 1].graph,
            labels,
            k,
            vertex_weights=levels[lvl - 1].vertex_weights,
            max_imbalance=max_imbalance,
        )
        if sp is not None:
            tr.end(sp)
    validate_partition(graph, labels, k)
    return labels


def _check_k(graph: Graph, k: int) -> None:
    if k < 1:
        raise PartitioningError("k must be >= 1")
    if graph.n_vertices and k > graph.n_vertices:
        raise PartitioningError("k exceeds the number of vertices")
    if graph.directed:
        raise PartitioningError("partitioning requires an undirected graph")
