"""Rich-club coefficient (paper §3's list of "novel SNA metrics").

φ(k) = 2·E_k / (N_k (N_k − 1)) where N_k vertices have degree > k and
E_k edges join two of them: the density of the subgraph induced by the
hubs.  Rising φ(k) means high-degree vertices preferentially
interconnect — a "rich club".
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphStructureError
from repro.kernels._frontier import GraphLike


def rich_club_coefficient(g: GraphLike) -> dict[int, float]:
    """φ(k) for every degree k with at least two richer vertices.

    Matches ``networkx.rich_club_coefficient(normalized=False)``.
    """
    graph = g.live()
    if graph.directed:
        raise GraphStructureError("rich-club requires an undirected graph")
    deg = graph.degrees()
    n = graph.n_vertices
    if n == 0:
        return {}
    u, v = graph.edge_endpoints()
    # For each edge, the smaller endpoint degree: the edge survives in
    # the >k subgraph for all k < min(deg_u, deg_v).
    edge_min_deg = np.minimum(deg[u], deg[v])
    max_deg = int(deg.max()) if deg.shape[0] else 0
    # counts of vertices/edges surviving threshold k
    deg_hist = np.bincount(deg, minlength=max_deg + 2)
    edge_hist = np.bincount(edge_min_deg, minlength=max_deg + 2)
    # N_k = # vertices with degree > k  (suffix sums)
    nk = np.cumsum(deg_hist[::-1])[::-1]
    ek = np.cumsum(edge_hist[::-1])[::-1]
    out: dict[int, float] = {}
    for k in range(max_deg):
        n_k = int(nk[k + 1])  # degree > k
        e_k = int(ek[k + 1])  # min endpoint degree > k
        if n_k < 2:
            break
        out[k] = 2.0 * e_k / (n_k * (n_k - 1))
    return out
