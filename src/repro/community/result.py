"""Common result type for all community-detection algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.community.modularity import labels_to_communities
from repro.kernels.segments import distinct


@dataclass
class ClusteringResult:
    """Outcome of one community-detection run.

    Attributes
    ----------
    labels:
        Per-vertex cluster id (arbitrary integers).
    modularity:
        q of the returned partition, measured on the input graph.
    algorithm:
        "pBD" / "pMA" / "pLA" / "GN" / "CNM".
    extras:
        Algorithm-specific artifacts (dendrogram, divisive trace,
        iteration counts, sampling effort) for inspection and benches.
    """

    labels: np.ndarray
    modularity: float
    algorithm: str
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        return int(distinct(self.labels).shape[0])

    def communities(self) -> list[np.ndarray]:
        """Vertex-id arrays, one per cluster."""
        return labels_to_communities(self.labels)

    def summary(self) -> str:
        return (
            f"{self.algorithm}: {self.n_clusters} clusters, "
            f"Q = {self.modularity:.4f}"
        )
