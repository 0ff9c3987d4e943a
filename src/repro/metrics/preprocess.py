"""Preprocessing routines for exploratory analysis (paper §3).

The paper's workflow: compute cheap structural metrics first, use them
to (a) pick the right community-detection algorithm, (b) decompose the
graph so components can be analyzed concurrently, and (c) screen
biological networks for non-essential vertices (low-degree articulation
points, per the HiCOMB'07 protein-interaction study [10]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.kernels._frontier import GraphLike
from repro.kernels.bfs import bfs
from repro.kernels.biconnected import biconnected_components
from repro.kernels.connected import component_sizes, connected_components
from repro.metrics.basic import average_degree, degree_skewness
from repro.metrics.assortativity import degree_assortativity
from repro.metrics.clustering import average_clustering
from repro.parallel.runtime import ParallelContext, ensure_context


@dataclass
class PreprocessReport:
    """Cheap structural summary used to steer later analysis."""

    n_vertices: int
    n_edges: int
    n_components: int
    largest_component_fraction: float
    average_degree: float
    degree_skewness: float
    average_clustering: float
    assortativity: float
    bipartite: bool
    n_articulation_points: int
    n_bridges: int
    component_labels: np.ndarray = field(repr=False)

    @property
    def looks_small_world(self) -> bool:
        """Heuristic: skewed degrees + appreciable clustering.

        Matches the paper's characterization of small-world networks
        (skewed degree distribution, dense local neighborhoods).
        """
        return self.degree_skewness > 1.0 and self.average_clustering > 0.05

    @property
    def pronounced_community_structure(self) -> bool:
        """Clustered, non-disassortative networks favour the pLA heuristic.

        Strongly negative assortativity signals hub-and-spoke topology
        (technological networks) where dense local neighborhoods are
        rare; community-structured graphs sit at or above zero.
        """
        return self.average_clustering > 0.1 and self.assortativity > -0.05


def is_bipartite(g: GraphLike, *, ctx: Optional[ParallelContext] = None) -> bool:
    """Two-coloring test via level parity of BFS."""
    graph = g.live()
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    color = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        if color[v] >= 0:
            continue
        res = bfs(graph, v, ctx=ctx)
        reached = res.reached
        color[reached] = res.distances[reached] % 2
    if graph.n_arcs == 0:
        return True
    return bool((color[graph.arc_sources()] != color[graph.targets]).all())


def lethality_screen(
    g: GraphLike,
    *,
    degree_threshold: int = 3,
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Vertices that are articulation points but low degree.

    The paper's protein-interaction observation [10]: such vertices are
    "unlikely to be essential to the network" despite separating it —
    their criticality is an artifact of sparse sampling.  Returns the
    vertex ids flagged by the screen.
    """
    graph = g.live()
    res = biconnected_components(graph, ctx=ctx)
    mask = res.articulation_mask & (graph.degrees() <= degree_threshold)
    return np.nonzero(mask)[0]


def preprocess(
    g: GraphLike, *, ctx: Optional[ParallelContext] = None
) -> PreprocessReport:
    """Run the full preprocessing battery and summarize.

    A masked input is compacted once; every sub-metric reads the live
    graph, made undirected when it is directed."""
    graph = g.live()
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    gg = graph.as_undirected()
    labels = connected_components(gg, ctx=ctx)
    sizes = component_sizes(labels) if n else {}
    largest = max(sizes.values()) if sizes else 0
    bic = biconnected_components(gg, ctx=ctx) if gg.n_edges else None
    return PreprocessReport(
        n_vertices=n,
        n_edges=graph.n_edges,
        n_components=len(sizes),
        largest_component_fraction=(largest / n) if n else 0.0,
        average_degree=average_degree(gg),
        degree_skewness=degree_skewness(gg),
        average_clustering=average_clustering(gg, ctx=ctx),
        assortativity=degree_assortativity(gg),
        bipartite=is_bipartite(gg, ctx=ctx),
        n_articulation_points=(
            int(bic.articulation_mask.sum()) if bic is not None else 0
        ),
        n_bridges=int(bic.bridge_mask.sum()) if bic is not None else 0,
        component_labels=labels,
    )
