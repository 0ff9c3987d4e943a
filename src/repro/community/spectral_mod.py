"""Spectral modularity maximization (the paper's stated future work).

"Our current focus is on support for spectral analysis of small-world
networks, and efficient parallel implementations of spectral algorithms
that optimize modularity" (paper §6).  This module implements the
leading-eigenvector method of Newman (PNAS 2006, the paper's ref [36]):

* the **modularity matrix** ``B = A − k kᵀ / 2W`` is never formed —
  products use a :class:`scipy.sparse.linalg.LinearOperator` costing
  O(m) per multiply;
* a group splits along the sign pattern of the leading eigenvector of
  its *generalized* modularity matrix ``B(g)`` (B restricted to g with
  the row-sum diagonal correction);
* each split is fine-tuned with Kernighan–Lin-style single-vertex
  moves (Newman's refinement);
* recursion stops when a group's best split no longer increases Q
  (indivisible community).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.community.modularity import modularity
from repro.community.result import ClusteringResult
from repro.errors import ClusteringError, GraphStructureError
from repro.graph.csr import Graph
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context

if TYPE_CHECKING:  # scipy loads on first use, in the functions below
    import scipy.sparse as sp


def _adjacency(graph: Graph) -> sp.csr_matrix:
    import scipy.sparse as sp

    w = graph.arc_weights()
    return sp.csr_matrix(
        (w, (graph.arc_sources(), graph.targets)),
        shape=(graph.n_vertices, graph.n_vertices),
    )


def _leading_eigenvector(
    adj: sp.csr_matrix,
    degrees: np.ndarray,
    group: np.ndarray,
    two_w: float,
    rng: np.random.Generator,
    max_iter: int = 400,
) -> tuple[np.ndarray, float]:
    """Leading eigenpair of the generalized modularity matrix B(group).

    Uses a spectral shift so the target eigenvalue is the largest in
    magnitude, then power iteration (robust where ARPACK is fussy about
    near-degenerate small groups).
    """
    sub = adj[group][:, group]
    k = degrees[group]
    # diagonal correction: d_i = Σ_{j∈g} B_ij
    row_sums = np.asarray(sub.sum(axis=1)).ravel() - k * (k.sum() / two_w)

    def matvec(x: np.ndarray) -> np.ndarray:
        return sub @ x - k * (k @ x) / two_w - row_sums * x

    ng = group.shape[0]
    # Gershgorin-style shift bound so B(g) + shift·I is PSD-dominant.
    shift = float(
        np.abs(sub).sum(axis=1).max() + np.abs(row_sums).max() + k.max() ** 2 / two_w
    )
    x = rng.standard_normal(ng)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(max_iter):
        y = matvec(x) + shift * x
        norm = np.linalg.norm(y)
        if norm == 0:
            break
        y /= norm
        new_lam = float(y @ matvec(y))
        if abs(new_lam - lam) < 1e-10 * max(1.0, abs(new_lam)):
            x = y
            lam = new_lam
            break
        x, lam = y, new_lam
    return x, lam


def _split_gain(
    adj: sp.csr_matrix,
    degrees: np.ndarray,
    group: np.ndarray,
    s: np.ndarray,
    two_w: float,
) -> float:
    """ΔQ of splitting ``group`` by the ±1 vector ``s``."""
    sub = adj[group][:, group]
    k = degrees[group]
    row_sums = np.asarray(sub.sum(axis=1)).ravel() - k * (k.sum() / two_w)
    bs = sub @ s - k * (k @ s) / two_w - row_sums * s
    return float(s @ bs) / (2.0 * two_w)


def _fine_tune(
    adj: sp.csr_matrix,
    degrees: np.ndarray,
    group: np.ndarray,
    s: np.ndarray,
    two_w: float,
) -> np.ndarray:
    """Newman's KL-style refinement: flip vertices one at a time (each
    at most once per pass), keep the best prefix."""
    s = s.copy()
    sub = adj[group][:, group]
    k = degrees[group]
    row_sums = np.asarray(sub.sum(axis=1)).ravel() - k * (k.sum() / two_w)
    # B(g) diagonal: A_ii − k_i²/2W − row_sums_i
    bg_diag = (
        np.asarray(sub.diagonal()) - k * k / two_w - row_sums
    )

    def bg_matvec(x: np.ndarray) -> np.ndarray:
        return sub @ x - k * (k @ x) / two_w - row_sums * x

    for _ in range(4):
        base = _split_gain(adj, degrees, group, s, two_w)
        best_prefix_gain = 0.0
        best_prefix = 0
        flipped: list[int] = []
        frozen = np.zeros(group.shape[0], dtype=bool)
        cur = s.copy()
        cur_gain = base
        for _step in range(group.shape[0]):
            # flipping i changes sᵀB(g)s by −4·s_i·(B(g)s)_i + 4·B(g)_ii
            bs = bg_matvec(cur)
            delta = (-4.0 * cur * bs + 4.0 * bg_diag) / (2.0 * two_w)
            delta[frozen] = -np.inf
            i = int(np.argmax(delta))
            if not np.isfinite(delta[i]):
                break
            cur[i] = -cur[i]
            frozen[i] = True
            flipped.append(i)
            cur_gain += float(delta[i])
            if cur_gain - base > best_prefix_gain + 1e-12:
                best_prefix_gain = cur_gain - base
                best_prefix = len(flipped)
        if best_prefix == 0:
            break
        for i in flipped[:best_prefix]:
            s[i] = -s[i]
    return s


@algorithm("spectral_modularity")
def spectral_modularity(
    graph: Graph,
    *,
    fine_tune: bool = True,
    min_group: int = 2,
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> ClusteringResult:
    """Leading-eigenvector modularity maximization (Newman 2006).

    Recursively bisects groups along the sign of the leading eigenvector
    of the generalized modularity matrix, refining each split, until no
    split increases modularity.
    """
    if graph.directed:
        raise GraphStructureError("community detection requires an undirected graph")
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    if n == 0:
        raise ClusteringError("cannot cluster an empty graph")
    rng = rng or np.random.default_rng(0)
    two_w = 2.0 * float(graph.edge_weights().sum())
    if two_w == 0.0:
        return ClusteringResult(
            np.arange(n, dtype=np.int64), 0.0, "spectral"
        )
    adj = _adjacency(graph)
    degrees = np.zeros(n, dtype=np.float64)
    u, v = graph.edge_endpoints()
    w = graph.edge_weights()
    np.add.at(degrees, u, w)
    np.add.at(degrees, v, w)

    labels = np.zeros(n, dtype=np.int64)
    next_label = 1
    work = [np.arange(n, dtype=np.int64)]
    splits = 0
    while work:
        group = work.pop()
        if group.shape[0] < 2 * min_group:
            continue
        vec, _ = _leading_eigenvector(adj, degrees, group, two_w, rng)
        s = np.where(vec >= 0, 1.0, -1.0)
        if fine_tune:
            s = _fine_tune(adj, degrees, group, s, two_w)
        gain = _split_gain(adj, degrees, group, s, two_w)
        ctx.cost.phase(float(max(1, 8 * group.shape[0])), 1.0)
        side_a = group[s > 0]
        side_b = group[s < 0]
        if gain <= 1e-12 or side_a.shape[0] < min_group or side_b.shape[0] < min_group:
            continue  # indivisible
        labels[side_b] = next_label
        next_label += 1
        splits += 1
        work.append(side_a)
        work.append(side_b)

    return ClusteringResult(
        labels,
        modularity(graph, labels),
        "spectral",
        extras={"n_splits": splits},
    )
