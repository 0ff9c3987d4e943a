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

from repro import _memory

_memory.apply()  # the one call site; forked pool/BSP/daemon workers inherit it

from repro import (  # noqa: E402
    centrality,
    community,
    datasets,
    dynamic,
    generators,
    graph,
    kernels,
    metrics,
    obs,
    parallel,
    partitioning,
)
from repro.centrality import (
    approximate_vertex_betweenness,
    betweenness_centrality,
    brandes,
    closeness_centrality,
    degree_centrality,
    edge_betweenness_centrality,
    sampled_betweenness,
)
from repro.community import (
    cnm,
    girvan_newman,
    local_resweep,
    pbd,
    pla,
    pma,
    spectral_modularity,
)
from repro.dynamic import StreamEngine, stream_replay
from repro.errors import (
    ClusteringError,
    ConvergenceError,
    ExecutionError,
    GraphFormatError,
    GraphStructureError,
    PartitioningError,
    RetryExhausted,
    SnapError,
    TaskTimeout,
)
from repro.graph import Graph, from_edge_list, from_edge_array
from repro.kernels import (
    articulation_points,
    bfs,
    biconnected_components,
    boruvka_msf,
    bridges,
    connected_components,
    delta_stepping,
    dijkstra,
    kruskal_msf,
    minimum_spanning_forest,
    msbfs,
    prim_mst,
    st_connectivity,
)
from repro.obs import (
    ALGORITHMS,
    NULL_TRACER,
    RunResult,
    Span,
    Tracer,
    algorithm_names,
    current_tracer,
    get_algorithm,
    use_tracer,
)
from repro import api  # noqa: E402  (needs the symbols above)
from repro.parallel import ChaosMonkey, ChaosPlan, Fault, FaultPolicy, ParallelContext
from repro.partitioning import (
    multilevel_bisection,
    multilevel_kway,
    multilevel_recursive_bisection,
    spectral_bisection,
    spectral_kway,
)

__version__ = "0.1.0"

__all__ = [
    # stable facade
    "api",
    # subpackages
    "graph",
    "parallel",
    "kernels",
    "centrality",
    "metrics",
    "community",
    "partitioning",
    "generators",
    "datasets",
    "dynamic",
    "obs",
    # graph construction
    "Graph",
    "from_edge_list",
    "from_edge_array",
    # observability / dispatch
    "RunResult",
    "Tracer",
    "Span",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
    "ALGORITHMS",
    "algorithm_names",
    "get_algorithm",
    "ParallelContext",
    # resilience / chaos
    "FaultPolicy",
    "ChaosPlan",
    "ChaosMonkey",
    "Fault",
    # kernels
    "bfs",
    "msbfs",
    "st_connectivity",
    "connected_components",
    "biconnected_components",
    "articulation_points",
    "bridges",
    "dijkstra",
    "delta_stepping",
    "boruvka_msf",
    "kruskal_msf",
    "prim_mst",
    "minimum_spanning_forest",
    # centrality
    "degree_centrality",
    "closeness_centrality",
    "betweenness_centrality",
    "edge_betweenness_centrality",
    "brandes",
    "sampled_betweenness",
    "approximate_vertex_betweenness",
    # community
    "pbd",
    "girvan_newman",
    "pma",
    "pla",
    "cnm",
    "local_resweep",
    "spectral_modularity",
    # streaming
    "StreamEngine",
    "stream_replay",
    # partitioning
    "multilevel_bisection",
    "multilevel_recursive_bisection",
    "multilevel_kway",
    "spectral_bisection",
    "spectral_kway",
    # errors
    "SnapError",
    "GraphFormatError",
    "GraphStructureError",
    "ConvergenceError",
    "PartitioningError",
    "ClusteringError",
    "ExecutionError",
    "TaskTimeout",
    "RetryExhausted",
    "__version__",
]
