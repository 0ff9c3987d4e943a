"""Dynamic graph representation with resizable adjacency arrays.

The paper's auxiliary representation for algorithms that need structural
updates (§3): per-vertex adjacency stored in amortized-doubling NumPy
arrays, optionally kept sorted so deletions are a binary search instead
of a linear scan.  Conversion to/from the static CSR representation is
provided so analysis kernels can run on a snapshot.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphStructureError
from repro.graph.csr import VERTEX_DTYPE, WEIGHT_DTYPE, Graph
from repro.graph import builder
from repro.kernels.segments import pair_order

_INITIAL_CAPACITY = 4


class DynamicGraph:
    """An undirected multigraph-free dynamic graph.

    Parameters
    ----------
    n_vertices:
        Fixed vertex count (vertex insertion is modelled by building with
        headroom, as SNAP does).
    sorted_adjacency:
        Keep each adjacency array sorted by target id.  Sorted mode makes
        ``has_edge``/``delete`` O(log d) searches at the cost of O(d)
        insertion shifts; unsorted mode appends in O(1) and deletes by
        swap-with-last.  This mirrors the paper's sorted-by-identifier
        speed-up for deletions.
    """

    def __init__(self, n_vertices: int, *, sorted_adjacency: bool = True) -> None:
        if n_vertices < 0:
            raise GraphStructureError("n_vertices must be non-negative")
        self._n = int(n_vertices)
        self.sorted_adjacency = bool(sorted_adjacency)
        self._adj: list[np.ndarray] = [
            np.empty(_INITIAL_CAPACITY, dtype=VERTEX_DTYPE) for _ in range(self._n)
        ]
        self._wgt: list[np.ndarray] = [
            np.empty(_INITIAL_CAPACITY, dtype=WEIGHT_DTYPE) for _ in range(self._n)
        ]
        self._deg = np.zeros(self._n, dtype=np.int64)
        self._m = 0
        self._weighted = False

    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return self._m

    @property
    def is_weighted(self) -> bool:
        """True once a non-unit weight has been added: only then does
        :meth:`to_csr` return weights."""
        return self._weighted

    def degree(self, v: int) -> int:
        self._check(v)
        return int(self._deg[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Targets adjacent to ``v`` (a view of the live prefix)."""
        self._check(v)
        return self._adj[v][: self._deg[v]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        self._check(v)
        return self._wgt[v][: self._deg[v]]

    # ------------------------------------------------------------------
    def _locate(self, u: int, v: int) -> int:
        """Index of ``v`` in ``u``'s adjacency, or -1."""
        adj = self.neighbors(u)
        if self.sorted_adjacency:
            i = int(np.searchsorted(adj, v))
            return i if i < adj.shape[0] and int(adj[i]) == v else -1
        hits = np.nonzero(adj == v)[0]
        return int(hits[0]) if hits.shape[0] else -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._locate(u, v) >= 0

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> bool:
        """Insert edge ``(u, v)``; returns False if already present."""
        self._check(u)
        self._check(v)
        if u == v:
            raise GraphStructureError("self-loops are not supported")
        if self.has_edge(u, v):
            return False
        self._insert_half(u, v, weight)
        self._insert_half(v, u, weight)
        self._m += 1
        self._weighted |= weight != 1.0
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``; returns False if absent."""
        self._check(u)
        self._check(v)
        iu = self._locate(u, v)
        if iu < 0:
            return False
        self._remove_half(u, iu)
        self._remove_half(v, self._locate(v, u))
        self._m -= 1
        return True

    def _insert_half(self, u: int, v: int, weight: float) -> None:
        d = int(self._deg[u])
        if d == self._adj[u].shape[0]:
            self._adj[u] = np.resize(self._adj[u], max(2 * d, _INITIAL_CAPACITY))
            self._wgt[u] = np.resize(self._wgt[u], max(2 * d, _INITIAL_CAPACITY))
        if self.sorted_adjacency:
            i = int(np.searchsorted(self._adj[u][:d], v))
            self._adj[u][i + 1 : d + 1] = self._adj[u][i:d]
            self._wgt[u][i + 1 : d + 1] = self._wgt[u][i:d]
            self._adj[u][i] = v
            self._wgt[u][i] = weight
        else:
            self._adj[u][d] = v
            self._wgt[u][d] = weight
        self._deg[u] = d + 1

    def _remove_half(self, u: int, i: int) -> None:
        d = int(self._deg[u])
        if self.sorted_adjacency:
            self._adj[u][i : d - 1] = self._adj[u][i + 1 : d]
            self._wgt[u][i : d - 1] = self._wgt[u][i + 1 : d]
        else:
            self._adj[u][i] = self._adj[u][d - 1]
            self._wgt[u][i] = self._wgt[u][d - 1]
        self._deg[u] = d - 1

    # ------------------------------------------------------------------
    def to_csr(self) -> Graph:
        """Snapshot into an immutable CSR :class:`Graph`."""
        # Every adjacency array at full capacity in one concatenate (the
        # leading empty array keeps n = 0 legal); the mask keeps each
        # live prefix and one direction per edge.
        caps = np.fromiter(map(len, self._adj), dtype=np.int64, count=self._n)
        src = np.repeat(np.arange(self._n, dtype=VERTEX_DTYPE), caps)
        dst = np.concatenate([np.empty(0, dtype=VERTEX_DTYPE), *self._adj])
        w = np.concatenate([np.empty(0, dtype=WEIGHT_DTYPE), *self._wgt])
        live_end = np.repeat(np.cumsum(caps) - caps + self._deg, caps)
        keep = (np.arange(dst.shape[0]) < live_end) & (dst > src)
        src, dst, w = src[keep], dst[keep], w[keep]
        # Canonical (u, v) edge order so edge ids — and everything
        # indexed by them, e.g. edge_weights() — are independent of the
        # adjacency mode and insertion history.  A stable no-op
        # permutation when sorted_adjacency=True.
        order = pair_order(src, dst, self._n)
        return builder.from_edge_array(
            self._n,
            src[order],
            dst[order],
            weights=w[order] if self._weighted else None,
            directed=False,
            dedupe=False,
        )

    @classmethod
    def from_csr(cls, graph: Graph, *, sorted_adjacency: bool = True) -> "DynamicGraph":
        """Build a dynamic copy of an undirected CSR graph."""
        if graph.directed:
            raise GraphStructureError("DynamicGraph supports undirected graphs")
        dyn = cls(graph.n_vertices, sorted_adjacency=sorted_adjacency)
        u, v = graph.edge_endpoints()
        w = graph.edge_weights()
        for i in range(graph.n_edges):
            dyn.add_edge(int(u[i]), int(v[i]), float(w[i]))
        return dyn

    def _check(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphStructureError(f"vertex {v} out of range [0, {self._n})")
