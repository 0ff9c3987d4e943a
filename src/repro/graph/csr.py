"""Static compressed-sparse-row (CSR) graph representation.

This is SNAP's primary representation (paper §3, "Data Representation"):
vertex adjacency lists flattened into cache-friendly contiguous arrays.
All kernels in :mod:`repro.kernels`, :mod:`repro.centrality` and
:mod:`repro.community` consume this structure, or the lightweight
:class:`EdgeSubsetView` used by divisive clustering algorithms that
logically delete edges without rebuilding the arrays.

Design notes
------------
* ``offsets`` has length ``n + 1``; the adjacency of vertex ``v`` is the
  slice ``targets[offsets[v]:offsets[v+1]]`` — a *view*, never a copy.
* Undirected graphs store each edge as two arcs.  ``arc_edge_ids[a]``
  maps arc ``a`` back to a canonical edge id in ``[0, m)``; divisive
  algorithms (pBD, Girvan–Newman) score and delete *edges*, so the
  mapping lets a boolean mask over edges filter both arcs at once.
* Adjacency slices are sorted by target vertex, which makes
  ``has_edge`` a binary search and triangle counting a vectorized
  sorted-set intersection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphStructureError

VERTEX_DTYPE = np.int64
EDGE_DTYPE = np.int64
WEIGHT_DTYPE = np.float64


class Graph:
    """An immutable CSR graph.

    Parameters
    ----------
    offsets:
        ``int64`` array of length ``n + 1``; ``offsets[0] == 0`` and
        ``offsets[n]`` equals the number of stored arcs.
    targets:
        ``int64`` array of arc target vertices, grouped by source vertex
        and sorted within each group.
    directed:
        Whether the graph is directed.  Undirected graphs store both
        arc directions.
    weights:
        Optional ``float64`` array of per-arc weights.  ``None`` means
        the graph is unweighted (all weights 1).
    arc_edge_ids:
        For undirected graphs, the canonical edge id of each arc; both
        arcs of one edge share an id in ``[0, m)``.  For directed
        graphs, arcs and edges coincide and this is ``arange(m)``
        (materialized lazily).

    Use :func:`repro.graph.builder.from_edge_array` or
    :func:`repro.graph.builder.from_edge_list` to construct instances —
    they validate, dedupe, sort and build the arc→edge mapping.
    """

    __slots__ = (
        "offsets",
        "targets",
        "weights",
        "directed",
        "_arc_edge_ids",
        "_n_edges",
        "_degrees",
        "_edge_endpoints",
        "_arc_sources",
    )

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        *,
        directed: bool,
        weights: Optional[np.ndarray] = None,
        arc_edge_ids: Optional[np.ndarray] = None,
        n_edges: Optional[int] = None,
        validate: bool = True,
    ) -> None:
        offsets = np.ascontiguousarray(offsets, dtype=EDGE_DTYPE)
        targets = np.ascontiguousarray(targets, dtype=VERTEX_DTYPE)
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=WEIGHT_DTYPE)
        if validate:
            _validate_csr(offsets, targets, weights)
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.directed = bool(directed)
        self._arc_edge_ids = arc_edge_ids
        if n_edges is not None:
            self._n_edges = int(n_edges)
        elif directed:
            self._n_edges = int(targets.shape[0])
        elif arc_edge_ids is not None and arc_edge_ids.shape[0]:
            self._n_edges = int(arc_edge_ids.max()) + 1
        else:
            self._n_edges = int(targets.shape[0]) // 2
        self._degrees: Optional[np.ndarray] = None
        self._edge_endpoints: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._arc_sources: Optional[np.ndarray] = None

    def __getstate__(self) -> tuple:
        """The data alone: a pickle carries no lazy cache, so its size
        does not depend on what ran on the graph (a directed graph's
        ``arc_edge_ids`` is ``arange`` and a cache too)."""
        eids = None if self.directed else self._arc_edge_ids
        return (self.offsets, self.targets, self.weights, self.directed,
                eids, self._n_edges)

    def __setstate__(self, state: tuple) -> None:
        (self.offsets, self.targets, self.weights, self.directed,
         self._arc_edge_ids, self._n_edges) = state
        self._degrees = self._edge_endpoints = self._arc_sources = None

    # ------------------------------------------------------------------
    # Size accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self.offsets.shape[0]) - 1

    @property
    def n_edges(self) -> int:
        """Number of edges ``m`` (undirected edges counted once)."""
        return self._n_edges

    @property
    def n_arcs(self) -> int:
        """Number of stored arcs (``2m`` for undirected graphs)."""
        return int(self.targets.shape[0])

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @property
    def has_unit_weights(self) -> bool:
        """True if no arc weighs other than 1: hop counts are then the
        shortest-path distances, so BFS answers what Dijkstra would."""
        return self.weights is None or bool(np.all(self.weights == 1.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        w = "weighted" if self.is_weighted else "unweighted"
        return f"Graph(n={self.n_vertices}, m={self.n_edges}, {kind}, {w})"

    # ------------------------------------------------------------------
    # Adjacency access (views, never copies)
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Sorted targets adjacent to ``v`` — a view into ``targets``."""
        self._check_vertex(v)
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights of the arcs out of ``v`` (all-ones view for unweighted)."""
        self._check_vertex(v)
        if self.weights is None:
            return np.ones(int(self.offsets[v + 1] - self.offsets[v]), dtype=WEIGHT_DTYPE)
        return self.weights[self.offsets[v] : self.offsets[v + 1]]

    def arc_range(self, v: int) -> tuple[int, int]:
        """Half-open arc-index range ``[lo, hi)`` for vertex ``v``."""
        self._check_vertex(v)
        return int(self.offsets[v]), int(self.offsets[v + 1])

    def degree(self, v: int) -> int:
        """Out-degree of ``v`` (degree for undirected graphs)."""
        self._check_vertex(v)
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """Out-degree array of length ``n`` (cached)."""
        if self._degrees is None:
            self._degrees = np.diff(self.offsets)
        return self._degrees

    def has_edge(self, u: int, v: int) -> bool:
        """Binary search for ``v`` in the sorted adjacency of ``u``."""
        adj = self.neighbors(u)
        i = int(np.searchsorted(adj, v))
        return i < adj.shape[0] and int(adj[i]) == v

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; raises if absent."""
        adj = self.neighbors(u)
        i = int(np.searchsorted(adj, v))
        if i >= adj.shape[0] or int(adj[i]) != v:
            raise GraphStructureError(f"edge ({u}, {v}) not present")
        if self.weights is None:
            return 1.0
        return float(self.weights[self.offsets[u] + i])

    # ------------------------------------------------------------------
    # Arc / edge id machinery
    # ------------------------------------------------------------------
    @property
    def arc_edge_ids(self) -> np.ndarray:
        """Canonical edge id of each arc (length ``n_arcs``)."""
        if self._arc_edge_ids is None:
            # Directed graphs: arcs are edges.
            self._arc_edge_ids = np.arange(self.n_arcs, dtype=EDGE_DTYPE)
        return self._arc_edge_ids

    def arc_sources(self) -> np.ndarray:
        """Source vertex of every arc — ``repeat`` expansion of offsets.

        Cached: weighted Brandes' backward sweep and the batched frontier
        expansion both resolve arcs back to their sources per arc, which
        would otherwise cost an O(log n) ``searchsorted`` each.
        """
        if self._arc_sources is None:
            self._arc_sources = np.repeat(
                np.arange(self.n_vertices, dtype=VERTEX_DTYPE), self.degrees()
            )
        return self._arc_sources

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical ``(u, v)`` endpoint arrays indexed by edge id.

        For undirected graphs ``u <= v``; for directed graphs the pair is
        (source, target) in arc order.  Cached after first call.
        """
        if self._edge_endpoints is None:
            src = self.arc_sources()
            if self.directed:
                self._edge_endpoints = (src, self.targets.copy())
            else:
                u = np.empty(self.n_edges, dtype=VERTEX_DTYPE)
                v = np.empty(self.n_edges, dtype=VERTEX_DTYPE)
                eids = self.arc_edge_ids
                # Each edge appears as two arcs; keep the arc with src <= dst.
                keep = src <= self.targets
                u[eids[keep]] = src[keep]
                v[eids[keep]] = self.targets[keep]
                self._edge_endpoints = (u, v)
        return self._edge_endpoints

    def arc_weights(self) -> np.ndarray:
        """Per-arc weights: the stored array, or ones if unweighted."""
        if self.weights is None:
            return np.ones(self.n_arcs, dtype=WEIGHT_DTYPE)
        return self.weights

    def edge_weights(self) -> np.ndarray:
        """Per-edge weights indexed by edge id (ones if unweighted)."""
        if self.weights is None:
            return np.ones(self.n_edges, dtype=WEIGHT_DTYPE)
        if self.directed:
            return self.weights.copy()
        out = np.empty(self.n_edges, dtype=WEIGHT_DTYPE)
        out[self.arc_edge_ids] = self.weights
        return out

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "Graph":
        """Transpose of a directed graph (returns self if undirected)."""
        if not self.directed:
            return self
        from repro.graph.builder import from_edge_array

        src = self.arc_sources()
        w = self.weights
        return from_edge_array(
            self.n_vertices, self.targets, src, weights=w, directed=True,
            dedupe=False,
        )

    def as_undirected(self) -> "Graph":
        """Undirected version of this graph (edge directivity ignored).

        The paper ignores edge directivity in the community-detection
        experiments (§5); this is the conversion they imply.
        """
        if not self.directed:
            return self
        from repro.graph.builder import from_edge_array

        src = self.arc_sources()
        return from_edge_array(
            self.n_vertices, src, self.targets, weights=self.weights,
            directed=False, dedupe=True,
        )

    def view(self, edge_active: Optional[np.ndarray] = None) -> "EdgeSubsetView":
        """A logical-deletion view over this graph (see EdgeSubsetView)."""
        return EdgeSubsetView(self, edge_active)

    def live(self) -> "Graph":
        """This graph: every edge is live (see :meth:`EdgeSubsetView.live`)."""
        return self

    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n_vertices:
            raise GraphStructureError(
                f"vertex {v} out of range [0, {self.n_vertices})"
            )


class EdgeSubsetView:
    """A graph view with a boolean *active* mask over edges.

    Divisive clustering (pBD, Girvan–Newman) repeatedly deletes the
    highest-betweenness edge.  Rebuilding CSR arrays per deletion is
    O(m); instead kernels accept this view and filter expanded arcs by
    ``active[arc_edge_ids]`` — an O(frontier) vectorized mask.

    The rule: a kernel whose work per call is O(frontier) (BFS, msbfs,
    s–t connectivity, Δ-stepping, Brandes) or whose result names edges
    (biconnected components, MST) filters dead arcs; every other kernel
    reads every arc anyway, so it compacts once with :meth:`live` and
    runs on a plain :class:`Graph` (``Graph.live()`` is the graph
    itself, so the call needs no branch).

    The view is mutable (edges can be deactivated/reactivated) while the
    underlying :class:`Graph` stays immutable and shared.
    """

    __slots__ = ("graph", "active")

    def __init__(self, graph: Graph, edge_active: Optional[np.ndarray] = None):
        self.graph = graph
        if edge_active is None:
            edge_active = np.ones(graph.n_edges, dtype=bool)
        else:
            edge_active = np.asarray(edge_active, dtype=bool)
            if edge_active.shape[0] != graph.n_edges:
                raise GraphStructureError(
                    "edge_active length must equal n_edges "
                    f"({edge_active.shape[0]} != {graph.n_edges})"
                )
            edge_active = edge_active.copy()
        self.active = edge_active

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_active_edges(self) -> int:
        return int(np.count_nonzero(self.active))

    def deactivate(self, edge_id: int) -> None:
        """Logically delete one edge."""
        if not self.active[edge_id]:
            raise GraphStructureError(f"edge {edge_id} already deleted")
        self.active[edge_id] = False

    def reactivate(self, edge_id: int) -> None:
        self.active[edge_id] = True

    def arc_active(self) -> np.ndarray:
        """Per-arc activity mask (length ``n_arcs``)."""
        return self.active[self.graph.arc_edge_ids]

    def live(self) -> Graph:
        """The live arcs as their own CSR (the base graph when every edge
        is live).  Rows and weights keep their order, and edge ids are
        renumbered by rank, so ``edge_endpoints()`` and ``edge_weights()``
        equal the base's arrays ``[active]``."""
        g = self.graph
        if self.active.all():
            return g
        arcs = np.flatnonzero(self.arc_active())
        eids = None
        if not g.directed:
            rank = np.cumsum(self.active) - 1
            eids = rank.take(g.arc_edge_ids.take(arcs))
        return Graph(
            np.searchsorted(arcs, g.offsets), g.targets.take(arcs),
            directed=g.directed,
            weights=None if g.weights is None else g.weights.take(arcs),
            arc_edge_ids=eids, n_edges=self.n_active_edges, validate=False,
        )


def _validate_csr(
    offsets: np.ndarray, targets: np.ndarray, weights: Optional[np.ndarray]
) -> None:
    if offsets.ndim != 1 or offsets.shape[0] < 1:
        raise GraphStructureError("offsets must be a 1-D array of length >= 1")
    if offsets[0] != 0:
        raise GraphStructureError("offsets[0] must be 0")
    if np.any(np.diff(offsets) < 0):
        raise GraphStructureError("offsets must be non-decreasing")
    if offsets[-1] != targets.shape[0]:
        raise GraphStructureError(
            f"offsets[-1] ({int(offsets[-1])}) must equal len(targets) "
            f"({targets.shape[0]})"
        )
    n = offsets.shape[0] - 1
    if targets.shape[0] and (targets.min() < 0 or targets.max() >= n):
        raise GraphStructureError("target vertex id out of range")
    if weights is not None and weights.shape[0] != targets.shape[0]:
        raise GraphStructureError("weights must have one entry per arc")
