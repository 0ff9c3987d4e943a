"""Network analysis metrics and preprocessing routines (paper §3).

"SNAP supports fast computation of simple as well as novel SNA metrics,
such as average vertex degree, clustering coefficient, average shortest
path length, rich-club coefficient, and assortativity" — plus the
preprocessing kernels (component decomposition, articulation screen)
that "combined together potentially offer an order of magnitude speedup
or more for key analysis kernels".
"""

from repro import _lazy

#: Each export -> the module that defines it.  A module loads when one
#: of its names is first read.
_HOMES = {
    **dict.fromkeys((
        "average_degree", "degree_distribution", "degree_histogram", "density",
    ), "repro.metrics.basic"),
    **dict.fromkeys((
        "local_clustering_coefficients", "average_clustering",
        "global_clustering_coefficient", "triangle_counts",
    ), "repro.metrics.clustering"),
    **dict.fromkeys((
        "average_shortest_path_length", "effective_diameter",
        "eccentricity_sample",
    ), "repro.metrics.paths"),
    "rich_club_coefficient": "repro.metrics.richclub",
    **dict.fromkeys((
        "degree_assortativity", "average_neighbor_degree",
        "neighbor_connectivity",
    ), "repro.metrics.assortativity"),
    **dict.fromkeys((
        "PreprocessReport", "preprocess", "lethality_screen", "is_bipartite",
    ), "repro.metrics.preprocess"),
}

__all__ = list(_HOMES)

__getattr__, __dir__ = _lazy.exports(globals(), _HOMES)
