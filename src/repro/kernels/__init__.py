"""Parallel graph kernels optimized for small-world networks (paper §3).

All kernels are vectorized over CSR arrays, accept an optional
:class:`~repro.parallel.runtime.ParallelContext` for work–span
instrumentation, and accept either a :class:`~repro.graph.csr.Graph` or
an :class:`~repro.graph.csr.EdgeSubsetView` (logical edge deletions)
where meaningful — the divisive clustering algorithms depend on the
latter.
"""

from repro import _lazy

#: Each export -> the module that defines it, in the order a registry
#: miss imports them.  A module loads when one of its names is first read.
_HOMES = {
    **dict.fromkeys((
        "BFSResult", "MSBFSResult", "bfs", "bfs_distances",
        "default_batch_size", "msbfs", "source_batches", "st_connectivity",
    ), "repro.kernels.bfs"),
    **dict.fromkeys((
        "connected_components", "component_sizes", "largest_component",
    ), "repro.kernels.connected"),
    **dict.fromkeys((
        "BiconnectedResult", "biconnected_components", "articulation_points",
        "bridges",
    ), "repro.kernels.biconnected"),
    **dict.fromkeys((
        "minimum_spanning_forest", "kruskal_msf", "prim_mst", "boruvka_msf",
    ), "repro.kernels.mst"),
    **dict.fromkeys((
        "SSSPResult", "delta_stepping", "dijkstra",
    ), "repro.kernels.sssp"),
    "spanning_forest": "repro.kernels.spanning",
    **dict.fromkeys((
        "segment_sums", "segment_maxes", "segment_argmax", "group_offsets",
        "grouped_label_weights", "boundary_vertices",
        "intersect_sorted_segments", "compact_adjacency",
    ), "repro.kernels.segments"),
}

__all__ = list(_HOMES)

__getattr__, __dir__ = _lazy.exports(globals(), _HOMES)
