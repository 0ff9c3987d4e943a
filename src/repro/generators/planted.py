"""Planted-partition community benchmarks.

The clustering-quality experiments need graphs with *known* community
structure.  :func:`planted_partition` samples a graph whose vertices
are pre-assigned to blocks, with independent intra-block probability
``p_in`` and inter-block probability ``p_out`` — the model Dasgupta et
al. analyze for spectral methods (paper §2.2) and the standard ground
truth for modularity heuristics.  Block sizes may be uniform or an
explicit (e.g. power-law) size vector, which is how the dataset
surrogates mimic the papers' real networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.graph import builder
from repro.graph.csr import Graph, VERTEX_DTYPE
from repro.kernels.segments import distinct


@dataclass
class PlantedPartition:
    """A sampled benchmark graph plus its ground-truth labels."""

    graph: Graph
    labels: np.ndarray

    @property
    def n_communities(self) -> int:
        return int(distinct(self.labels).shape[0])


def planted_partition(
    sizes: Sequence[int] | int,
    p_in: float,
    p_out: float,
    *,
    n_blocks: Optional[int] = None,
    degree_weights: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> PlantedPartition:
    """Sample a planted-partition graph.

    ``sizes`` is either an explicit per-block size list or a single
    uniform block size (then ``n_blocks`` is required).  Edges are
    sampled by expected count per block pair (binomial draws of
    endpoint pairs), which is O(m) rather than O(n²).

    ``degree_weights`` (length n, positive) makes the model
    *degree-corrected*: endpoints within each block are drawn
    proportionally to their weight, so a power-law weight vector yields
    the skewed degree distributions of real small-world networks while
    preserving the planted block structure.
    """
    if isinstance(sizes, (int, np.integer)):
        if n_blocks is None or n_blocks < 1:
            raise ValueError("uniform sizes need n_blocks >= 1")
        sizes = [int(sizes)] * int(n_blocks)
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("block sizes must be positive")
    for p in (p_in, p_out):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
    rng = rng or np.random.default_rng(0)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    block_p: list[Optional[np.ndarray]] = [None] * len(sizes)
    if degree_weights is not None:
        degree_weights = np.asarray(degree_weights, dtype=np.float64)
        if degree_weights.shape[0] != n or np.any(degree_weights <= 0):
            raise ValueError("degree_weights must be positive, length n")
        for b in range(len(sizes)):
            w = degree_weights[offsets[b] : offsets[b + 1]]
            block_p[b] = w / w.sum()

    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []

    def draw(block: int, count: int) -> np.ndarray:
        if block_p[block] is None:
            return rng.integers(0, sizes[block], size=count) + offsets[block]
        return rng.choice(sizes[block], size=count, p=block_p[block]) + offsets[block]

    def sample_block_pair(i: int, j: int) -> None:
        ni, nj = sizes[i], sizes[j]
        if i == j:
            possible = ni * (ni - 1) // 2
            p = p_in
        else:
            possible = ni * nj
            p = p_out
        if possible == 0 or p == 0.0:
            return
        count = int(rng.binomial(possible, p))
        if count == 0:
            return
        # Sample with replacement then dedupe (slight undershoot at
        # high densities is immaterial for the benchmark).
        u = draw(i, count)
        v = draw(j, count)
        src_parts.append(u.astype(VERTEX_DTYPE))
        dst_parts.append(v.astype(VERTEX_DTYPE))

    k = len(sizes)
    for i in range(k):
        sample_block_pair(i, i)
        for j in range(i + 1, k):
            sample_block_pair(i, j)

    src = (
        np.concatenate(src_parts) if src_parts else np.empty(0, dtype=VERTEX_DTYPE)
    )
    dst = (
        np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=VERTEX_DTYPE)
    )
    graph = builder.from_edge_array(n, src, dst, directed=False, dedupe=True)
    return PlantedPartition(graph, labels)
