"""Graph representations and I/O for the SNAP reproduction.

The primary static representation is :class:`~repro.graph.csr.Graph`, a
cache-friendly compressed-sparse-row adjacency structure backed by NumPy
arrays (paper §3, "Data Representation").  Dynamic workloads use
:class:`~repro.graph.dynamic.DynamicGraph` (resizable adjacency arrays)
and :class:`~repro.graph.hybrid.HybridAdjacency` (unsorted arrays for
low-degree vertices, treaps for high-degree vertices).
"""

from repro import _lazy
from repro.graph.csr import Graph, EdgeSubsetView
from repro.graph.builder import (
    from_edge_array,
    from_edge_list,
    from_networkx,
    to_networkx,
    induced_subgraph,
    compress_vertices,
    contract,
)

# the dynamic representations load on first use
__getattr__, __dir__ = _lazy.exports(globals(), {
    "DynamicGraph": "repro.graph.dynamic",
    "Treap": "repro.graph.treap",
    "HybridAdjacency": "repro.graph.hybrid",
})

__all__ = [
    "Graph",
    "EdgeSubsetView",
    "DynamicGraph",
    "Treap",
    "HybridAdjacency",
    "from_edge_array",
    "from_edge_list",
    "from_networkx",
    "to_networkx",
    "induced_subgraph",
    "compress_vertices",
    "contract",
]
