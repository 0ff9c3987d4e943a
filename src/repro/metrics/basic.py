"""Basic topological statistics: degrees, density, distributions."""

from __future__ import annotations

import numpy as np

from repro.kernels._frontier import GraphLike


def average_degree(g: GraphLike) -> float:
    """Mean (out-)degree."""
    if g.n_vertices == 0:
        return 0.0
    return float(g.live().degrees().mean())


def density(g: GraphLike) -> float:
    """Edge density m / (n choose 2) (or m / n(n-1) for directed)."""
    graph = g.live()
    n = graph.n_vertices
    if n < 2:
        return 0.0
    possible = n * (n - 1) if graph.directed else n * (n - 1) / 2
    return float(graph.n_edges / possible)


def degree_distribution(g: GraphLike) -> tuple[np.ndarray, np.ndarray]:
    """``(degrees, fraction_of_vertices)`` — the empirical P(k).

    Only degrees with non-zero probability are returned, sorted
    ascending; convenient for log-log plotting of the skewed
    distributions the paper exploits.
    """
    deg = g.live().degrees()
    if deg.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    values, counts = np.unique(deg, return_counts=True)
    return values.astype(np.int64), counts / deg.shape[0]


def degree_histogram(g: GraphLike) -> np.ndarray:
    """``hist[k]`` = number of vertices of degree ``k``."""
    deg = g.live().degrees()
    if deg.shape[0] == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(deg)


def degree_skewness(g: GraphLike) -> float:
    """Sample skewness of the degree distribution.

    Small-world networks show strongly positive skew (a heavy right
    tail of hubs); Euclidean meshes are near zero.  Used by the
    preprocessing report to pick algorithms.
    """
    deg = g.live().degrees().astype(np.float64)
    if deg.shape[0] < 2:
        return 0.0
    mu = deg.mean()
    sd = deg.std()
    if sd == 0:
        return 0.0
    return float(((deg - mu) ** 3).mean() / sd**3)
