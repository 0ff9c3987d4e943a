"""Incremental connectivity under edge insertions.

Union–find with union-by-size and path compression gives near-O(1)
``connected`` queries while edges stream in.  Deletions cannot be
handled incrementally by union–find, so :meth:`delete_edge` records the
deletion and flips the structure into a *stale* state; the next query
triggers an epoch rebuild from the surviving edge set (O(m α) — the
classic offline fallback, amortized well when deletions are rare, which
is the paper's stated streaming regime).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphStructureError


class IncrementalComponents:
    """Dynamic connectivity over a fixed vertex set."""

    def __init__(self, n_vertices: int) -> None:
        if n_vertices < 0:
            raise GraphStructureError("n_vertices must be non-negative")
        self._n = int(n_vertices)
        self._parent = np.arange(self._n, dtype=np.int64)
        self._size = np.ones(self._n, dtype=np.int64)
        self._n_components = self._n
        self._edges: set[tuple[int, int]] = set()
        self._stale = False

    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_components(self) -> int:
        self._ensure_fresh()
        return self._n_components

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    # ------------------------------------------------------------------
    def _find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = int(self._parent[root])
        while self._parent[x] != root:
            self._parent[x], x = root, int(self._parent[x])
        return root

    def _union(self, a: int, b: int) -> bool:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._n_components -= 1
        return True

    def _check(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphStructureError(f"vertex {v} out of range [0, {self._n})")

    def _ensure_fresh(self) -> None:
        if not self._stale:
            return
        self._parent = np.arange(self._n, dtype=np.int64)
        self._size = np.ones(self._n, dtype=np.int64)
        self._n_components = self._n
        for u, v in self._edges:
            self._union(u, v)
        self._stale = False

    def assign_labels(self, labels: np.ndarray) -> None:
        """Take the canonical ``labels`` of the current edge set (the
        batch kernel's, say) in place of a pending rebuild: every
        vertex then points straight at its component's minimum vertex."""
        self._parent = np.array(labels, dtype=np.int64)
        self._size = np.bincount(self._parent, minlength=self._n)
        self._n_components = int(np.count_nonzero(self._size))
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
            self._union(u, v)
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
        self._ensure_fresh()
        return int(self._size[self._find(v)])

    def labels(self) -> np.ndarray:
        """Canonical component labels: minimum vertex id per component.

        The same convention as the batch
        :func:`~repro.kernels.connected.connected_components` kernel,
        so incremental and full-recompute labels are *bit-identical* —
        the contract the streaming prefix-differential harness
        (:mod:`repro.qa.prefix`) asserts per batch.
        """
        self._ensure_fresh()
        if self._n == 0:
            return np.empty(0, dtype=np.int64)
        # Vectorized pointer jumping; trees are near-flat after path
        # compression, so this converges in a couple of O(n) passes.
        roots = self._parent.copy()
        while True:
            nxt = roots[roots]
            if np.array_equal(nxt, roots):
                break
            roots = nxt
        self._parent = roots.copy()  # full compression for later finds
        first = np.full(self._n, self._n, dtype=np.int64)
        np.minimum.at(first, roots, np.arange(self._n, dtype=np.int64))
        return first[roots]
