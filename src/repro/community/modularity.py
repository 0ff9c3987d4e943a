"""Modularity (paper §2.3) and incremental cluster bookkeeping.

    q(C) = Σ_i [ w_in(C_i)/W  −  (s(C_i) / 2W)² ]

where ``W`` is the total edge weight, ``w_in`` the intra-cluster weight
and ``s`` the total degree (weight) of a cluster.  For unweighted
graphs this is exactly the paper's formula with ``m(C_i)`` intra-cluster
edge counts.

Divisive algorithms evaluate q of the partition induced by the current
components *against the original graph* (the Girvan–Newman convention);
:class:`ModularityTracker` maintains the per-cluster sums so a split
costs O(|cluster|) instead of O(m).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.errors import ClusteringError
from repro.graph.csr import Graph
from repro.kernels.segments import distinct


def modularity(graph: Graph, labels: np.ndarray) -> float:
    """Modularity of a vertex partition, vectorized.

    ``labels`` may use arbitrary integer cluster ids.  Directed graphs
    are measured on the implied symmetric structure (the paper ignores
    directivity for community detection).
    """
    return modularity_evaluator(graph)(labels)


def modularity_evaluator(graph: Graph) -> Callable[[np.ndarray], float]:
    """``labels -> modularity(graph, labels)`` for repeated evaluation:
    the graph-side invariants (edge endpoints, weights, total weight)
    are read once, so scoring many partitions of one graph — the pLA
    sweep guard — pays only the label-dependent part per call.  It is
    the one-chunk case of :func:`modularity_fold`.
    """
    n, m = graph.n_vertices, graph.n_edges
    u, v = graph.edge_endpoints()
    w = graph.edge_weights()
    total_w = float(w.sum())
    one_chunk = ((u, v, w),)
    return lambda labels: modularity_fold(labels, n, m, total_w, lambda: one_chunk)


def modularity_fold(
    labels: np.ndarray,
    n_vertices: int,
    n_edges: int,
    total_w: float,
    chunks: Callable[[], Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]],
) -> float:
    """Modularity of ``labels`` over an edge stream read in chunks.

    ``chunks()`` yields ``(u, v, w)`` edge chunks in edge-id order and
    is called twice.  ``bincount`` adds one element at a time in index
    order, and each later chunk is added onto the running per-cluster
    sums the same way, so the floats are those of one ``bincount`` over
    the whole stream, however it is chunked.  The order is contract:
    intra over the same-cluster edges; strength over the ``u`` stream,
    then the ``v`` stream.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != n_vertices:
        raise ClusteringError(
            f"labels length {labels.shape[0]} != n_vertices {n_vertices}"
        )
    if n_edges == 0:
        return 0.0
    _, dense = np.unique(labels, return_inverse=True)
    k = int(dense.max()) + 1
    intra = strength = None
    for u, v, w in chunks():
        du, dv = dense[u], dense[v]
        same = np.flatnonzero(du == dv)
        intra = _carry_sums(intra, du[same], w[same], k)
        strength = _carry_sums(strength, du, w, k)
    for _, v, w in chunks():
        strength = _carry_sums(strength, dense[v], w, k)
    q = intra.sum() / total_w - float(((strength / (2.0 * total_w)) ** 2).sum())
    return float(q)


def _carry_sums(
    acc: Optional[np.ndarray], keys: np.ndarray, weights: np.ndarray, k: int
) -> np.ndarray:
    """Per-cluster sums of ``weights`` added onto the running ``acc``
    (``None`` before the first part) one element at a time in index
    order: bit for bit one ``bincount`` over every part so far."""
    if acc is None:
        return np.bincount(keys, weights=weights, minlength=k)
    np.add.at(acc, keys, weights)
    return acc


def labels_to_communities(labels: np.ndarray) -> list[np.ndarray]:
    """Sorted list of vertex-id arrays, one per cluster."""
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    if labels.shape[0] == 0:
        return []
    boundaries = np.nonzero(np.diff(sorted_labels))[0] + 1
    return [np.sort(part) for part in np.split(order, boundaries)]


class ModularityTracker:
    """Incremental modularity under cluster *splits* (divisive use).

    Starts from an initial partition (default: connected components or
    one cluster) and supports ``split(old_cluster, part_a, part_b)`` in
    O(|part_a| + |part_b| + incident edges) time, keeping ``q`` exact.
    """

    def __init__(self, graph: Graph, labels: Optional[np.ndarray] = None) -> None:
        self.graph = graph
        n = graph.n_vertices
        if labels is None:
            labels = np.zeros(n, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64).copy()
        if labels.shape[0] != n:
            raise ClusteringError("labels length mismatch")
        self.labels = labels
        self._u, self._v = graph.edge_endpoints()
        self._w = graph.edge_weights()
        self.total_weight = float(self._w.sum())
        self._degree = np.zeros(n, dtype=np.float64)
        if graph.n_edges:
            np.add.at(self._degree, self._u, self._w)
            np.add.at(self._degree, self._v, self._w)
        self._next_label = int(labels.max()) + 1 if n else 0
        # Per-cluster sums, stored sparsely.
        self._intra: dict[int, float] = {}
        self._strength: dict[int, float] = {}
        for c in distinct(labels):
            self._intra[int(c)] = 0.0
            self._strength[int(c)] = 0.0
        if graph.n_edges:
            lu, lv = labels[self._u], labels[self._v]
            same = lu == lv
            for c, val in zip(*_group_sum(lu[same], self._w[same])):
                self._intra[int(c)] = val
        for c, val in zip(*_group_sum(labels, self._degree)):
            self._strength[int(c)] = val

    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        return len(self._intra)

    def modularity(self) -> float:
        if self.total_weight == 0:
            return 0.0
        W = self.total_weight
        q = sum(self._intra.values()) / W
        q -= sum((s / (2.0 * W)) ** 2 for s in self._strength.values())
        return float(q)

    def split(self, part_a: np.ndarray, part_b: np.ndarray) -> int:
        """Split one cluster into ``part_a`` (keeps its label) and
        ``part_b`` (gets a fresh label, returned).

        Both parts must currently share a single label and partition it.
        """
        part_a = np.asarray(part_a, dtype=np.int64)
        part_b = np.asarray(part_b, dtype=np.int64)
        if part_a.shape[0] == 0 or part_b.shape[0] == 0:
            raise ClusteringError("both parts of a split must be non-empty")
        old = int(self.labels[part_a[0]])
        members = np.concatenate([part_a, part_b])
        if not (self.labels[members] == old).all():
            raise ClusteringError("split parts must share one current cluster")
        new = self._next_label
        self._next_label += 1
        self.labels[part_b] = new
        # Recompute the two parts' sums from their incident edges.
        in_b = np.zeros(self.graph.n_vertices, dtype=bool)
        in_b[part_b] = True
        in_a = np.zeros(self.graph.n_vertices, dtype=bool)
        in_a[part_a] = True
        touch = in_a[self._u] | in_b[self._u] | in_a[self._v] | in_b[self._v]
        eu, ev, ew = self._u[touch], self._v[touch], self._w[touch]
        intra_a = float(ew[in_a[eu] & in_a[ev]].sum())
        intra_b = float(ew[in_b[eu] & in_b[ev]].sum())
        self._intra[old] = intra_a
        self._intra[new] = intra_b
        s_b = float(self._degree[part_b].sum())
        self._strength[new] = s_b
        self._strength[old] -= s_b
        return new

    def check(self) -> None:
        """Assert the incremental state matches a fresh recomputation."""
        expect = modularity(self.graph, self.labels)
        got = self.modularity()
        if abs(expect - got) > 1e-9:
            raise AssertionError(f"tracker drift: {got} vs {expect}")


def _group_sum(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unique keys, per-key sums) via sort-free bincount on dense ids."""
    if keys.shape[0] == 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    uniq, dense = np.unique(keys, return_inverse=True)
    sums = np.bincount(dense, weights=vals)
    return uniq, sums
