"""Degree-aware work partitioning (paper §3, load balancing).

In a level-synchronous BFS where vertices are statically assigned to
processors "without considering their degree, it is highly probable
that there will be phases with severe work imbalance" — so SNAP first
estimates the processing work per vertex and assigns vertices to
processors accordingly, and visits the adjacencies of high-degree
vertices in parallel.  These helpers build the degree-oblivious
baseline assignment and quantify the imbalance the cost model charges
it (:func:`repro.parallel.runtime.phase_of_work`).
"""

from __future__ import annotations

import numpy as np


def chunk_ranges(n: int, p: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``p`` nearly equal contiguous ranges.

    This is the *degree-oblivious* static assignment — the baseline the
    paper improves on.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if p < 1:
        raise ValueError("p must be >= 1")
    base, extra = divmod(n, p)
    out: list[tuple[int, int]] = []
    start = 0
    for i in range(p):
        size = base + (1 if i < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def chunk_work(work: np.ndarray, chunks: list[tuple[int, int]]) -> np.ndarray:
    """Total work per chunk."""
    work = np.asarray(work, dtype=np.float64)
    return np.asarray([float(work[lo:hi].sum()) for lo, hi in chunks])


def imbalance_factor(work: np.ndarray, chunks: list[tuple[int, int]]) -> float:
    """Max-over-mean chunk work; 1.0 is perfect balance.

    This is the multiplicative slowdown a statically scheduled phase
    suffers relative to its ideal ``W/p`` time.
    """
    per = chunk_work(work, chunks)
    mean = per.mean()
    if mean == 0:
        return 1.0
    return float(per.max() / mean)

