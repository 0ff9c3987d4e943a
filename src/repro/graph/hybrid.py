"""Hybrid adjacency: arrays for low-degree, treaps for high-degree vertices.

The paper (§3) observes that small-world networks have unbalanced degree
distributions — most vertices are low degree, a few are very high degree
— and proposes thresholding: low-degree adjacencies live in simple
unsorted arrays, high-degree adjacencies in treaps [39] that support fast
insertion, deletion, search, split/join and parallel set operations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphStructureError
from repro.graph.csr import VERTEX_DTYPE, Graph
from repro.graph.treap import Treap

DEFAULT_DEGREE_THRESHOLD = 32


class _ArrayAdj:
    """Unsorted dynamic adjacency for one low-degree vertex.

    Backed by a plain Python list: for the handful of neighbors a
    low-degree vertex carries, list append / swap-delete run entirely
    in C and beat per-call numpy dispatch overhead on tiny arrays.
    """

    __slots__ = ("ids",)

    def __init__(self) -> None:
        self.ids: list[int] = []

    @property
    def count(self) -> int:
        return len(self.ids)

    def contains(self, v: int) -> bool:
        return v in self.ids

    def add(self, v: int) -> None:
        self.ids.append(v)

    def remove(self, v: int) -> bool:
        try:
            i = self.ids.index(v)
        except ValueError:
            return False
        self.ids[i] = self.ids[-1]
        self.ids.pop()
        return True

    def to_sorted_array(self) -> np.ndarray:
        return np.asarray(sorted(self.ids), dtype=VERTEX_DTYPE)


class HybridAdjacency:
    """Per-vertex adjacency that promotes hot vertices to treaps.

    Vertices start with an unsorted array; once their degree exceeds
    ``degree_threshold`` the adjacency is promoted to a :class:`Treap`.
    Demotion happens when deletions shrink the degree below a quarter of
    the threshold (hysteresis avoids promote/demote thrash).
    """

    def __init__(
        self,
        n_vertices: int,
        *,
        degree_threshold: int = DEFAULT_DEGREE_THRESHOLD,
        seed: int = 0x5EED,
    ) -> None:
        if n_vertices < 0:
            raise GraphStructureError("n_vertices must be non-negative")
        if degree_threshold < 1:
            raise GraphStructureError("degree_threshold must be >= 1")
        self._n = int(n_vertices)
        self.degree_threshold = int(degree_threshold)
        self._seed = seed
        self._slots: list[_ArrayAdj | Treap] = [_ArrayAdj() for _ in range(self._n)]
        # Membership mirror: one set per vertex, kept in lockstep with
        # the slots.  Gives O(1) has_edge and O(min-degree) common-
        # neighbor *counting* regardless of the slot representation.
        self._sets: list[set[int]] = [set() for _ in range(self._n)]
        self._m = 0

    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self._n

    @property
    def n_edges(self) -> int:
        return self._m

    def is_promoted(self, v: int) -> bool:
        """Whether vertex ``v`` currently uses a treap."""
        self._check(v)
        return isinstance(self._slots[v], Treap)

    def degree(self, v: int) -> int:
        self._check(v)
        slot = self._slots[v]
        return len(slot) if isinstance(slot, Treap) else slot.count

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of ``v`` (materialized)."""
        self._check(v)
        slot = self._slots[v]
        if isinstance(slot, Treap):
            return slot.keys_array()
        return slot.to_sorted_array()

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._sets[u]

    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        if u == v:
            raise GraphStructureError("self-loops are not supported")
        if v in self._sets[u]:
            return False
        self._sets[u].add(v)
        self._sets[v].add(u)
        self._add_half(u, v)
        self._add_half(v, u)
        self._m += 1
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        if v not in self._sets[u]:
            return False
        self._sets[u].discard(v)
        self._sets[v].discard(u)
        self._del_half(u, v)
        self._del_half(v, u)
        self._m -= 1
        return True

    def _add_half(self, u: int, v: int) -> None:
        slot = self._slots[u]
        if isinstance(slot, Treap):
            slot.insert(v)
            return
        slot.add(v)
        if slot.count > self.degree_threshold:
            self._promote(u)

    def _del_half(self, u: int, v: int) -> None:
        slot = self._slots[u]
        if isinstance(slot, Treap):
            slot.delete(v)
            if len(slot) < max(1, self.degree_threshold // 4):
                self._demote(u)
        else:
            slot.remove(v)

    def _promote(self, u: int) -> None:
        arr = self._slots[u]
        assert isinstance(arr, _ArrayAdj)
        t = Treap(seed=self._seed ^ (u * 0x9E3779B1 & 0x7FFFFFFF))
        for v in arr.ids:
            t.insert(int(v))
        self._slots[u] = t

    def _demote(self, u: int) -> None:
        t = self._slots[u]
        assert isinstance(t, Treap)
        arr = _ArrayAdj()
        for k in t.keys_array():
            arr.add(int(k))
        self._slots[u] = arr

    # ------------------------------------------------------------------
    def common_neighbors(self, u: int, v: int) -> np.ndarray:
        """Sorted intersection of two adjacencies.

        When both vertices are promoted this uses treap intersection —
        the set-algebra path the paper motivates.  When one is, the
        array side's neighbours are filtered by membership in the hub's
        mirror set, so the hub's treap is never walked.  Otherwise a
        vectorized sorted-array intersection.
        """
        su, sv = self._slots[u], self._slots[v]
        if isinstance(su, Treap) and isinstance(sv, Treap):
            return su.intersection(sv).keys_array()
        if isinstance(su, Treap) or isinstance(sv, Treap):
            small, hub = (sv, u) if isinstance(su, Treap) else (su, v)
            members = self._sets[hub]
            return np.asarray(
                sorted(x for x in small.ids if x in members), dtype=VERTEX_DTYPE
            )
        return np.intersect1d(self.neighbors(u), self.neighbors(v))

    @classmethod
    def from_csr(
        cls, graph: Graph, *, degree_threshold: int = DEFAULT_DEGREE_THRESHOLD
    ) -> "HybridAdjacency":
        if graph.directed:
            raise GraphStructureError("HybridAdjacency supports undirected graphs")
        h = cls(graph.n_vertices, degree_threshold=degree_threshold)
        u, v = graph.edge_endpoints()
        for i in range(graph.n_edges):
            h.add_edge(int(u[i]), int(v[i]))
        return h

    def _check(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphStructureError(f"vertex {v} out of range [0, {self._n})")
