"""Parallel graph kernels optimized for small-world networks (paper §3).

All kernels are vectorized over CSR arrays, accept an optional
:class:`~repro.parallel.runtime.ParallelContext` for work–span
instrumentation, and accept either a :class:`~repro.graph.csr.Graph` or
an :class:`~repro.graph.csr.EdgeSubsetView` (logical edge deletions)
where meaningful — the divisive clustering algorithms depend on the
latter.
"""

from repro.kernels.bfs import (
    BFSResult,
    MSBFSResult,
    bfs,
    bfs_distances,
    default_batch_size,
    msbfs,
    source_batches,
    st_connectivity,
)
from repro.kernels.connected import (
    connected_components,
    component_sizes,
    largest_component,
)
from repro.kernels.biconnected import (
    BiconnectedResult,
    biconnected_components,
    articulation_points,
    bridges,
)
from repro.kernels.mst import (
    minimum_spanning_forest,
    kruskal_msf,
    prim_mst,
    boruvka_msf,
)
from repro.kernels.sssp import (
    SSSPResult,
    delta_stepping,
    dijkstra,
)
from repro.kernels.spanning import spanning_forest
from repro.kernels.segments import (
    segment_sums,
    segment_maxes,
    segment_argmax,
    group_offsets,
    grouped_label_weights,
    boundary_vertices,
    intersect_sorted_segments,
    compact_adjacency,
)

__all__ = [
    "BFSResult",
    "MSBFSResult",
    "bfs",
    "bfs_distances",
    "default_batch_size",
    "msbfs",
    "source_batches",
    "st_connectivity",
    "connected_components",
    "component_sizes",
    "largest_component",
    "BiconnectedResult",
    "biconnected_components",
    "articulation_points",
    "bridges",
    "minimum_spanning_forest",
    "kruskal_msf",
    "prim_mst",
    "boruvka_msf",
    "SSSPResult",
    "delta_stepping",
    "dijkstra",
    "spanning_forest",
    "segment_sums",
    "segment_maxes",
    "segment_argmax",
    "group_offsets",
    "grouped_label_weights",
    "boundary_vertices",
    "intersect_sorted_segments",
    "compact_adjacency",
]
