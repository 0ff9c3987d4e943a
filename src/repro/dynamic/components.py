"""Incremental connectivity under edge insertions.

:class:`UnionFind` keeps component labels only: each union hooks the
larger root under the smaller, so every root is its component's minimum
vertex, and path compression keeps ``connected`` queries near O(1)
while edges stream in.  It holds no edge set, so deletions are the
owner's business: :class:`~repro.dynamic.engine.StreamEngine` hands it
the batch kernel's labels after a batch that deletes.
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

