"""Community identification (paper §4) — the core contribution.

Three novel parallel modularity-maximization heuristics:

* :func:`~repro.community.pbd.pbd` — approximate-betweenness divisive
  (Algorithm 1),
* :func:`~repro.community.pma.pma` — agglomerative with SNAP data
  structures (Algorithm 2),
* :func:`~repro.community.pla.pla` — greedy local aggregation
  (Algorithm 3),

plus the baselines they are evaluated against: Girvan–Newman exact
edge-betweenness divisive clustering (:func:`~repro.community.gn.girvan_newman`)
and Clauset–Newman–Moore greedy agglomeration
(:func:`~repro.community.cnm.cnm`), and the paper's stated future-work
direction, spectral modularity maximization
(:func:`~repro.community.spectral_mod.spectral_modularity`).
"""

from repro import _lazy

#: Each export -> the module that defines it, in the order a registry
#: miss imports them.  A module loads when one of its names is first read.
_HOMES = {
    **dict.fromkeys((
        "modularity", "ModularityTracker", "labels_to_communities",
    ), "repro.community.modularity"),
    **dict.fromkeys((
        "Dendrogram", "DivisiveTrace",
    ), "repro.community.dendrogram"),
    "ClusteringResult": "repro.community.result",
    "cnm": "repro.community.cnm",
    "pma": "repro.community.pma",
    "girvan_newman": "repro.community.gn",
    "pbd": "repro.community.pbd",
    "pla": "repro.community.pla",
    **dict.fromkeys((
        "BEST_KNOWN_MODULARITY", "PAPER_TABLE2",
    ), "repro.community.best_known"),
    "local_resweep": "repro.community.resweep",
    "spectral_modularity": "repro.community.spectral_mod",
}

__all__ = list(_HOMES)

__getattr__, __dir__ = _lazy.exports(globals(), _HOMES)
