"""Dendrogram structures for agglomerative and divisive clustering.

"The agglomeration can be represented by a tree, referred to as a
dendrogram, whose internal nodes correspond to joins" (paper §4).
Divisive algorithms produce the mirror object: an ordered trace of edge
deletions with the modularity after each step, from which the best cut
is extracted (Algorithm 1 step 9: "Inspect the dendrogram, set C to the
clustering with the highest modularity score").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ClusteringError


@dataclass
class Dendrogram:
    """Agglomerative merge tree over ``n_vertices`` initial singletons.

    ``merges[k] = (a, b)`` records that cluster ``b`` was absorbed into
    cluster ``a`` at step ``k``; ``scores[k]`` is the modularity *after*
    that merge.  ``scores[-1 - len(merges)]``-style indexing is avoided:
    ``labels_at(k)`` replays the first ``k`` merges.
    """

    n_vertices: int
    merges: list[tuple[int, int]] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    initial_score: float = 0.0

    def record(self, a: int, b: int, score: float) -> None:
        self.merges.append((int(a), int(b)))
        self.scores.append(float(score))

    @property
    def n_steps(self) -> int:
        return len(self.merges)

    def best_step(self) -> int:
        """Number of merges of the best prefix (0 = no merges)."""
        if not self.scores:
            return 0
        best = int(np.argmax(self.scores))
        if self.scores[best] <= self.initial_score:
            return 0
        return best + 1

    def labels_at(self, step: int) -> np.ndarray:
        """Cluster labels after the first ``step`` merges (union-find replay)."""
        if not 0 <= step <= self.n_steps:
            raise ClusteringError(f"step {step} out of range [0, {self.n_steps}]")
        parent = np.arange(self.n_vertices, dtype=np.int64)

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = int(parent[root])
            while parent[x] != root:
                parent[x], x = root, int(parent[x])
            return root

        for a, b in self.merges[:step]:
            parent[find(b)] = find(a)
        return np.asarray([find(v) for v in range(self.n_vertices)], dtype=np.int64)


@dataclass
class DivisiveTrace:
    """Ordered edge-deletion history of a divisive run.

    ``deleted_edges[k]`` was removed at step ``k``; ``scores[k]`` is the
    modularity of the component partition after that deletion.
    ``labels_per_step`` optionally snapshots the label arrays (kept by
    the algorithms since splits are incremental and cheap to copy only
    at improvement points: only the best is retained by default).
    """

    deleted_edges: list[int] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    initial_score: float = 0.0
    best_labels_snapshot: Optional[np.ndarray] = None
    best_score: float = float("-inf")

    def record(self, edge_id: int, score: float, labels: np.ndarray) -> None:
        self.deleted_edges.append(int(edge_id))
        self.scores.append(float(score))
        if score > self.best_score:
            self.best_score = float(score)
            self.best_labels_snapshot = labels.copy()

    @property
    def n_steps(self) -> int:
        return len(self.deleted_edges)

    def best_step(self) -> int:
        if not self.scores:
            return 0
        return int(np.argmax(self.scores)) + 1
