"""Incremental connectivity under edge insertions.

:class:`UnionFind` keeps component labels only: each union hooks the
larger root under the smaller, so every root is its component's minimum
vertex, and path compression keeps ``connected`` queries near O(1)
while edges stream in.  It holds no edge set, so deletions are the
owner's business: :class:`~repro.dynamic.engine.StreamEngine` hands it
the batch kernel's labels after a batch that deletes.

:class:`IncrementalComponents` is the standalone structure with its own
edge set: :meth:`~IncrementalComponents.delete_edge` records the
deletion and flips it into a *stale* state; the next query triggers an
epoch rebuild from the surviving edges (O(m α) — the classic offline
fallback, amortized well when deletions are rare, which is the paper's
stated streaming regime).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphStructureError


class UnionFind:
    """Min-root union–find over a fixed vertex set: labels only."""

    def __init__(self, n_vertices: int) -> None:
        if n_vertices < 0:
            raise GraphStructureError("n_vertices must be non-negative")
        self._n = int(n_vertices)
        self._parent = np.arange(self._n, dtype=np.int64)
        self._n_components = self._n

    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_components(self) -> int:
        return self._n_components

    def _find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = int(self._parent[root])
        while self._parent[x] != root:
            self._parent[x], x = root, int(self._parent[x])
        return root

    def union(self, a: int, b: int) -> bool:
        """Join the components of ``a`` and ``b``; False if already one."""
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        self._parent[max(ra, rb)] = min(ra, rb)
        self._n_components -= 1
        return True

    def assign_labels(self, labels: np.ndarray) -> None:
        """Take the canonical ``labels`` of the current edge set (the
        batch kernel's, say): every vertex then points straight at its
        component's minimum vertex."""
        self._parent = np.array(labels, dtype=np.int64)
        self._n_components = int(
            np.count_nonzero(self._parent == np.arange(self._n))
        )

    def labels(self) -> np.ndarray:
        """Canonical component labels: minimum vertex id per component.

        The same convention as the batch
        :func:`~repro.kernels.connected.connected_components` kernel,
        so incremental and full-recompute labels are *bit-identical* —
        the contract the streaming prefix-differential harness
        (:mod:`repro.qa.prefix`) asserts per batch.
        """
        # Vectorized pointer jumping; trees are near-flat after path
        # compression, so this converges in a couple of O(n) passes.
        roots = self._parent
        while True:
            nxt = roots[roots]
            if np.array_equal(nxt, roots):
                break
            roots = nxt
        self._parent = roots  # full compression for later finds
        return roots.copy()


class IncrementalComponents(UnionFind):
    """Dynamic connectivity over a fixed vertex set, with its edge set."""

    def __init__(self, n_vertices: int) -> None:
        super().__init__(n_vertices)
        self._edges: set[tuple[int, int]] = set()
        self._stale = False

    @property
    def n_components(self) -> int:
        self._ensure_fresh()
        return self._n_components

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def _check(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphStructureError(f"vertex {v} out of range [0, {self._n})")

    def _ensure_fresh(self) -> None:
        if not self._stale:
            return
        self._parent = np.arange(self._n, dtype=np.int64)
        self._n_components = self._n
        for u, v in self._edges:
            self.union(u, v)
        self._stale = False

    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge (u, v); returns True if newly inserted."""
        self._check(u)
        self._check(v)
        if u == v:
            raise GraphStructureError("self-loops are not supported")
        key = (min(u, v), max(u, v))
        if key in self._edges:
            return False
        self._edges.add(key)
        if not self._stale:
            self.union(u, v)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Remove edge (u, v); returns True if it existed.

        Marks connectivity stale; the next query rebuilds.
        """
        self._check(u)
        self._check(v)
        key = (min(u, v), max(u, v))
        if key not in self._edges:
            return False
        self._edges.discard(key)
        self._stale = True
        return True

    def connected(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        self._ensure_fresh()
        return self._find(u) == self._find(v)

    def component_size(self, v: int) -> int:
        self._check(v)
        labels = self.labels()
        return int(np.count_nonzero(labels == labels[v]))

    def labels(self) -> np.ndarray:
        self._ensure_fresh()
        return super().labels()
