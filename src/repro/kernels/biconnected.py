"""Biconnected components, articulation points and bridges.

A preprocessing kernel the paper leans on three times: pLA deletes
bridges before local aggregation (Alg. 3 step 1), pBD optionally seeds
its high-centrality edge set with bridges (Alg. 1 step 1), and the
protein-interaction analysis flags low-degree articulation points as
non-essential (§3).

The implementation is an iterative Hopcroft–Tarjan lowpoint DFS (no
recursion, so million-vertex graphs do not hit Python's stack limit)
over CSR arrays, honouring :class:`EdgeSubsetView` masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.kernels._frontier import GraphLike, unwrap
from repro.errors import GraphStructureError
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context


@dataclass
class BiconnectedResult:
    """Edge-labelled biconnected decomposition.

    Attributes
    ----------
    edge_component:
        Per-edge biconnected-component id (-1 for deleted/masked edges).
    articulation_mask:
        Boolean per-vertex articulation-point indicator.
    bridge_mask:
        Boolean per-edge bridge indicator (a bridge is a biconnected
        component of a single edge).
    n_components:
        Number of biconnected components.
    """

    edge_component: np.ndarray
    articulation_mask: np.ndarray
    bridge_mask: np.ndarray
    n_components: int

    @property
    def articulation_points(self) -> np.ndarray:
        return np.nonzero(self.articulation_mask)[0]

    @property
    def bridges(self) -> np.ndarray:
        return np.nonzero(self.bridge_mask)[0]


@algorithm("biconnected_components")
def biconnected_components(
    g: GraphLike, *, ctx: Optional[ParallelContext] = None
) -> BiconnectedResult:
    """Hopcroft–Tarjan biconnected decomposition of an undirected graph."""
    graph, edge_active = unwrap(g)
    if graph.directed:
        raise GraphStructureError("biconnected components require an undirected graph")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    m = graph.n_edges
    offsets, targets, eids = graph.offsets, graph.targets, graph.arc_edge_ids

    disc = np.full(n, -1, dtype=np.int64)      # DFS discovery time
    low = np.zeros(n, dtype=np.int64)          # lowpoint
    parent_edge = np.full(n, -1, dtype=np.int64)
    edge_comp = np.full(m, -1, dtype=np.int64)
    is_art = np.zeros(n, dtype=bool)
    is_bridge = np.zeros(m, dtype=bool)

    timer = 0
    n_comp = 0
    edge_stack: list[int] = []  # edge ids on the current DFS path

    # ``cursor[v]`` is the next arc index to scan from v (iterative DFS).
    cursor = np.asarray(offsets[:-1], dtype=np.int64).copy()
    ends = np.asarray(offsets[1:], dtype=np.int64)

    # Work accounting: SNAP's biconnected-components kernel follows the
    # Tarjan–Vishkin parallel decomposition (Euler tour + connected
    # components on an auxiliary graph): O(m + n) work across O(log n)
    # barrier-separated rounds.  This implementation *executes* the
    # sequential Hopcroft–Tarjan DFS (simpler and exact), but charges
    # the cost model the TV schedule, which is what the paper's
    # preprocessing steps run.  See DESIGN.md §3.
    rounds = max(1, int(np.ceil(np.log2(max(2, n)))))
    for _ in range(2 * rounds):
        ctx.cost.phase(float(graph.n_arcs + n) / (2 * rounds), 1.0)

    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = timer
        low[root] = timer
        timer += 1
        stack = [root]
        root_children = 0
        while stack:
            v = stack[-1]
            advanced = False
            while cursor[v] < ends[v]:
                a = int(cursor[v])
                cursor[v] += 1
                w = int(targets[a])
                e = int(eids[a])
                if edge_active is not None and not edge_active[e]:
                    continue
                if e == parent_edge[v]:
                    continue
                if disc[w] < 0:
                    # Tree edge: descend.
                    edge_stack.append(e)
                    parent_edge[w] = e
                    disc[w] = timer
                    low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append(w)
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    # Back edge to an ancestor.
                    edge_stack.append(e)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                # Forward/duplicate sightings (disc[w] > disc[v]) were
                # already stacked when scanned from w; skip.
            if advanced:
                continue
            # Retreat from v.
            stack.pop()
            if not stack:
                break
            u = stack[-1]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                # u separates v's subtree: pop one biconnected component.
                comp_edges = []
                pe = parent_edge[v]
                while edge_stack:
                    e = edge_stack.pop()
                    comp_edges.append(e)
                    if e == pe:
                        break
                edge_comp[comp_edges] = n_comp
                if len(comp_edges) == 1:
                    is_bridge[comp_edges[0]] = True
                n_comp += 1
                if u != root:
                    is_art[u] = True
        if root_children >= 2:
            is_art[root] = True

    return BiconnectedResult(edge_comp, is_art, is_bridge, n_comp)


@algorithm("articulation_points")
def articulation_points(
    g: GraphLike, *, ctx: Optional[ParallelContext] = None
) -> np.ndarray:
    """Vertex ids whose removal disconnects their component."""
    return biconnected_components(g, ctx=ctx).articulation_points


@algorithm("bridges")
def bridges(g: GraphLike, *, ctx: Optional[ParallelContext] = None) -> np.ndarray:
    """Edge ids whose removal disconnects their component."""
    return biconnected_components(g, ctx=ctx).bridges
