"""repro — a from-scratch Python reproduction of SNAP.

SNAP (Small-world Network Analysis and Partitioning; Bader & Madduri,
IPDPS 2008) is an open-source parallel graph framework for exploratory
study and partitioning of large-scale networks.  This package
reimplements the full stack:

* graph representations (:mod:`repro.graph`) — static CSR arrays,
  dynamic adjacency, treap-backed hybrid adjacency;
* a parallel runtime substrate (:mod:`repro.parallel`) — execution
  contexts, a PRAM work–span cost model, degree-aware load balancing,
  work-stealing simulation;
* graph kernels (:mod:`repro.kernels`) — level-synchronous BFS,
  connected/biconnected components, MST, Δ-stepping SSSP;
* centrality (:mod:`repro.centrality`) — degree, closeness, exact and
  adaptive-sampling approximate betweenness;
* SNA metrics (:mod:`repro.metrics`) — clustering coefficients,
  assortativity, rich-club, path statistics, preprocessing;
* community detection (:mod:`repro.community`) — the paper's pBD, pMA
  and pLA algorithms plus the GN and CNM baselines;
* partitioning (:mod:`repro.partitioning`) — Metis-style multilevel and
  Chaco-style spectral partitioners;
* generators and datasets (:mod:`repro.generators`,
  :mod:`repro.datasets`) — R-MAT, small-world, road-like and planted-
  partition graphs, the exact karate club, and surrogates for the
  paper's test networks.

Quickstart::

    from repro import generators, community, metrics

    g = generators.rmat(scale=12, edge_factor=8)
    report = metrics.preprocess(g)
    result = community.pla(g)
    print(result.summary())

Every public algorithm entrypoint follows the canonical surface
``fn(graph, <operands...>, *, ctx=None, seed=None, trace=None, ...)``
and is importable from the top level.  The **stable facade** is
:mod:`repro.api` — three verbs over the whole stack::

    import repro.api as api

    web = api.load("graph.txt")            # resident GraphHandle
    fut = api.submit(web, "closeness")     # coalescing Future[RunResult]
    res = api.run("bfs", web, source=0)    # sync shim

``repro.api.run`` shares one validation path with the CLI and the
``repro serve`` wire protocol; :func:`repro.obs.run` underneath it
executes any registered algorithm (or callable) on a bare graph under
full observability.
"""

from repro import _lazy, _memory

_memory.apply()  # the one call site; forked pool/BSP/daemon workers inherit it

__version__ = "0.1.0"

#: Each re-exported name -> the module that defines it, in ``__all__``
#: order.  Nothing here is imported until it is first read, so
#: ``import repro.<x>`` costs only ``<x>`` and what it imports.
_HOMES = {
    # stable facade
    "api": "repro.api",
    # subpackages
    **{name: f"repro.{name}" for name in (
        "graph", "parallel", "kernels", "centrality", "metrics", "community",
        "partitioning", "generators", "datasets", "dynamic", "obs",
    )},
    # graph construction
    **dict.fromkeys(("Graph", "from_edge_list", "from_edge_array"), "repro.graph"),
    # observability / dispatch
    **dict.fromkeys((
        "RunResult", "Tracer", "Span", "NULL_TRACER", "current_tracer",
        "use_tracer", "ALGORITHMS", "algorithm_names", "get_algorithm",
    ), "repro.obs"),
    "ParallelContext": "repro.parallel",
    # resilience / chaos
    **dict.fromkeys(("FaultPolicy", "ChaosPlan", "ChaosMonkey", "Fault"), "repro.parallel"),
    # kernels
    **dict.fromkeys((
        "bfs", "msbfs", "st_connectivity", "connected_components",
        "biconnected_components", "articulation_points", "bridges",
        "dijkstra", "delta_stepping", "boruvka_msf", "kruskal_msf",
        "prim_mst", "minimum_spanning_forest",
    ), "repro.kernels"),
    # centrality
    **dict.fromkeys((
        "degree_centrality", "closeness_centrality", "betweenness_centrality",
        "edge_betweenness_centrality", "brandes", "sampled_betweenness",
        "approximate_vertex_betweenness",
    ), "repro.centrality"),
    # community
    **dict.fromkeys((
        "pbd", "girvan_newman", "pma", "pla", "cnm", "local_resweep",
        "spectral_modularity",
    ), "repro.community"),
    # streaming
    **dict.fromkeys(("StreamEngine", "stream_replay"), "repro.dynamic"),
    # partitioning
    **dict.fromkeys((
        "multilevel_bisection", "multilevel_recursive_bisection",
        "multilevel_kway", "spectral_bisection", "spectral_kway",
    ), "repro.partitioning"),
    # errors
    **dict.fromkeys((
        "SnapError", "GraphFormatError", "GraphStructureError",
        "ConvergenceError", "PartitioningError", "ClusteringError",
        "ExecutionError", "TaskTimeout", "RetryExhausted",
    ), "repro.errors"),
}

__all__ = [*_HOMES, "__version__"]

__getattr__, __dir__ = _lazy.exports(globals(), _HOMES)
