"""Nearly-Euclidean "physical" graphs for the Table 1 comparison.

Table 1's "Physical (road)" instance has ~200k vertices and ~1M edges
(average degree ≈ 10) and partitions with a tiny edge cut because "the
degree distribution is relatively constant and most connectivity is
localized".  Two generators reproduce that regime:

* :func:`road_network` — a k-nearest-neighbor geometric graph over
  random points in the unit square (localized connectivity, bounded
  nearly-constant degree, O(√n) diameter);
* :func:`grid_graph` — a plain 2-D lattice, the limiting case.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph import builder
from repro.graph.csr import Graph, VERTEX_DTYPE


def road_network(
    n: int,
    k: int = 10,
    *,
    rng: Optional[np.random.Generator] = None,
    weighted_by_distance: bool = False,
) -> Graph:
    """k-nearest-neighbor geometric graph on ``n`` uniform points.

    Each vertex connects to its ``k`` Euclidean nearest neighbors; the
    symmetrized result has average degree slightly above ``k``.  With
    ``weighted_by_distance`` the edge weights are the Euclidean lengths
    (useful for SSSP experiments).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 1 or k >= n:
        raise ValueError("k must be in [1, n)")
    from scipy.spatial import cKDTree  # loads scipy on first use

    rng = rng or np.random.default_rng(0)
    pts = rng.random((n, 2))
    tree = cKDTree(pts)
    dists, idx = tree.query(pts, k=k + 1)  # first hit is the point itself
    src = np.repeat(np.arange(n, dtype=VERTEX_DTYPE), k)
    dst = idx[:, 1:].reshape(-1).astype(VERTEX_DTYPE)
    weights = None
    if weighted_by_distance:
        weights = dists[:, 1:].reshape(-1)
    return builder.from_edge_array(
        n, src, dst, weights=weights, directed=False, dedupe=True
    )


def grid_graph(rows: int, cols: int, *, diagonal: bool = False) -> Graph:
    """2-D lattice; with ``diagonal`` each cell also links to its
    down-right neighbor (8-ish connectivity)."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    src, dst = [], []
    idx = lambda r, c: r * cols + c
    for r in range(rows):
        for c in range(cols):
            v = idx(r, c)
            if c + 1 < cols:
                src.append(v)
                dst.append(idx(r, c + 1))
            if r + 1 < rows:
                src.append(v)
                dst.append(idx(r + 1, c))
            if diagonal and r + 1 < rows and c + 1 < cols:
                src.append(v)
                dst.append(idx(r + 1, c + 1))
    return builder.from_edge_array(
        rows * cols,
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        directed=False,
        dedupe=False,
    )
