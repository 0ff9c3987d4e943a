"""Centrality metrics (paper §2.1, §3).

* degree centrality — local neighborhood size;
* closeness centrality — inverse total distance;
* betweenness centrality — Brandes shortest-path enumeration, exact
  (vertex and edge variants, fine- or coarse-grained parallelization)
  and approximate via the adaptive-sampling estimator of
  Bader–Kintali–Madduri–Mihail [7] that pBD builds on.
"""

from repro import _lazy

#: Each export -> the module that defines it, in the order a registry
#: miss imports them.  A module loads when one of its names is first read.
_HOMES = {
    "degree_centrality": "repro.centrality.degree",
    "closeness_centrality": "repro.centrality.closeness",
    **dict.fromkeys((
        "BrandesResult", "betweenness_centrality",
        "edge_betweenness_centrality", "brandes",
    ), "repro.centrality.betweenness"),
    **dict.fromkeys((
        "approximate_vertex_betweenness", "sampled_betweenness",
        "AdaptiveSampleResult",
    ), "repro.centrality.approximate"),
}

__all__ = list(_HOMES)

__getattr__, __dir__ = _lazy.exports(globals(), _HOMES)
