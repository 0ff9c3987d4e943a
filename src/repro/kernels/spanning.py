"""Unweighted spanning forest (paper §3, ref [5]).

SNAP's spanning-tree kernel is a BFS-style parallel tree construction;
here each component's tree is read straight off the level-synchronous
BFS parent array, inheriting its phase accounting.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphStructureError
from repro.kernels._frontier import GraphLike
from repro.kernels.bfs import bfs
from repro.parallel.runtime import ParallelContext, ensure_context


def spanning_forest(
    g: GraphLike, *, ctx: Optional[ParallelContext] = None
) -> np.ndarray:
    """Parent array of a spanning forest (parent[root] == root).

    Unreached is impossible — every vertex is the root of its own tree
    until claimed by a BFS from an earlier root.
    """
    graph = g.live()
    if graph.directed:
        raise GraphStructureError("spanning forest requires an undirected graph")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    parent = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if parent[v] >= 0:
            continue
        res = bfs(graph, v, ctx=ctx)
        reached = res.reached
        parent[reached] = res.parents[reached]
    return parent


def tree_edges(parent: np.ndarray) -> np.ndarray:
    """(child, parent) pairs of the forest, excluding the roots."""
    parent = np.asarray(parent, dtype=np.int64)
    child = np.nonzero(parent != np.arange(parent.shape[0]))[0]
    return np.stack([child, parent[child]], axis=1)
