"""Degree assortativity and average neighbor connectivity (paper §3).

"The average neighbor connectivity metric is a weighted average that
gives the average neighbor degree of a degree-k vertex ... The
assortativity coefficient is a related metric proposed by Newman, which
is an indicator of community structure in a network."
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphStructureError
from repro.kernels._frontier import GraphLike, unwrap
from repro.kernels.segments import distinct


def _active_arc_endpoints(g: GraphLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(arc sources, arc targets, effective degrees) honouring masks."""
    graph, edge_active = unwrap(g)
    src = graph.arc_sources()
    dst = graph.targets
    if edge_active is not None:
        keep = edge_active[graph.arc_edge_ids]
        src, dst = src[keep], dst[keep]
    deg = np.bincount(src, minlength=graph.n_vertices)
    return src, dst, deg


def degree_assortativity(g: GraphLike) -> float:
    """Pearson correlation of degrees across edges (Newman 2002).

    +1: hubs link to hubs (assortative, social-network-like);
    −1: hubs link to leaves (disassortative, technological-network-like).
    """
    graph, _ = unwrap(g)
    if graph.directed:
        raise GraphStructureError(
            "degree assortativity implemented for undirected graphs"
        )
    src, dst, deg = _active_arc_endpoints(g)
    if src.shape[0] == 0:
        return 0.0
    x = deg[src].astype(np.float64)
    y = deg[dst].astype(np.float64)
    # Pearson correlation over (symmetric) arc list.
    mx = x.mean()
    vx = x.var()
    if vx == 0:
        return 0.0  # regular graph: correlation undefined, report 0
    cov = ((x - mx) * (y - mx)).mean()
    return float(cov / vx)


def average_neighbor_degree(g: GraphLike) -> np.ndarray:
    """Per-vertex mean degree of its neighbors (0 for isolated)."""
    graph, _ = unwrap(g)
    src, dst, deg = _active_arc_endpoints(g)
    total = np.zeros(graph.n_vertices, dtype=np.float64)
    if src.shape[0]:
        np.add.at(total, src, deg[dst].astype(np.float64))
    out = np.zeros(graph.n_vertices, dtype=np.float64)
    ok = deg > 0
    out[ok] = total[ok] / deg[ok]
    return out


def neighbor_connectivity(g: GraphLike) -> dict[int, float]:
    """knn(k): average neighbor degree over all degree-k vertices.

    Increasing knn(k) indicates assortative mixing; decreasing,
    disassortative.  This is the curve the paper says helps "identify
    instances of specific graph classes" before choosing a clustering
    algorithm.
    """
    graph, _ = unwrap(g)
    _, _, deg = _active_arc_endpoints(g)
    annd = average_neighbor_degree(g)
    out: dict[int, float] = {}
    for k in distinct(deg):
        if k == 0:
            continue
        mask = deg == k
        out[int(k)] = float(annd[mask].mean())
    return out
