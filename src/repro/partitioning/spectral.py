"""Spectral partitioning à la Chaco (paper ref [22], Table 1).

Bisect by the Fiedler vector (second-smallest Laplacian eigenvector):
vertices below the median value form one side.  Two eigensolvers,
matching Chaco's options in Table 1:

* ``method="lanczos"`` — shift-invert ARPACK Lanczos on the Laplacian
  (``Chaco-LAN``): robust, completes even where the resulting cut is
  terrible;
* ``method="rqi"`` — the multilevel-accelerated Rayleigh-quotient
  iteration (``Chaco-RQI``): coarsen with heavy-edge matching, solve
  the coarsest eigenproblem densely, project up and refine with RQI at
  each level.

On small-world graphs RQI is fragile, as Chaco was: heavy-edge matching
stalls on skewed degree distributions (hubs exhaust their neighborhoods
immediately), the coarse starting vector is poor, and
Mihail–Papadimitriou (paper ref [33]) show the eigenvectors localize on
high-degree neighborhoods, so the refinement stagnates.  Stagnation
raises :class:`~repro.errors.ConvergenceError` and a degenerate
(tiny-side) split raises :class:`~repro.errors.PartitioningError`; the
Table 1 harness prints either as "–", exactly as the paper does for the
small-world row.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ConvergenceError, PartitioningError
from repro.graph.builder import induced_subgraph
from repro.graph.csr import Graph, VERTEX_DTYPE
from repro.partitioning.refine import fm_refine_bisection
from repro.partitioning.metrics import validate_partition
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context

if TYPE_CHECKING:  # scipy loads on first use, in the functions below
    import scipy.sparse as sp

_DEGENERATE_FRACTION = 0.01


def _laplacian(graph: Graph) -> sp.csr_matrix:
    import scipy.sparse as sp

    n = graph.n_vertices
    src = graph.arc_sources()
    w = graph.arc_weights()
    a = sp.csr_matrix((w, (src, graph.targets)), shape=(n, n))
    deg = np.asarray(a.sum(axis=1)).ravel()
    return sp.diags(deg) - a


def fiedler_vector(
    graph: Graph,
    *,
    method: str = "lanczos",
    max_iter: int = 300,
    tol: float = 1e-6,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Second-smallest Laplacian eigenvector.

    Raises :class:`ConvergenceError` if the solver stagnates within its
    iteration budget — deliberately *not* retried with looser settings,
    because reproducing the failure mode is part of the Table 1
    experiment.
    """
    n = graph.n_vertices
    if n < 3:
        raise PartitioningError("Fiedler vector needs at least 3 vertices")
    rng = rng or np.random.default_rng(0)
    lap = _laplacian(graph)
    if method == "lanczos":
        import scipy.sparse.linalg as spla

        try:
            # Shift-invert Lanczos targeting the small end of the
            # spectrum.  A slightly negative shift keeps L - σI positive
            # definite despite the constant-vector null space.
            vals, vecs = spla.eigsh(
                lap,
                k=2,
                sigma=-1e-3,
                which="LM",
                maxiter=max_iter,
                tol=tol,
                v0=rng.random(n),
            )
        except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
            raise ConvergenceError(f"Lanczos stagnated: {exc}") from exc
        except RuntimeError as exc:  # singular factorization
            raise ConvergenceError(f"Lanczos factorization failed: {exc}") from exc
        order = np.argsort(vals)
        return vecs[:, order[1]]
    if method == "rqi":
        return _multilevel_rqi_fiedler(graph, lap, max_iter=max_iter, tol=tol, rng=rng)
    raise ValueError("method must be 'lanczos' or 'rqi'")


def _multilevel_rqi_fiedler(
    graph: Graph,
    lap: sp.csr_matrix,
    *,
    max_iter: int,
    tol: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Chaco-style multilevel RQI.

    Coarsen with heavy-edge matching, solve the coarsest Fiedler pair
    densely, then project up the hierarchy refining with
    Rayleigh-quotient iteration (MINRES inner solves) at every level.

    Heavy-edge matching degrades on skewed degree distributions (a hub
    matches one neighbor and strands the rest), so on small-world
    graphs the hierarchy barely contracts and the projected starting
    vector is poor; when the top-level refinement cannot push the
    residual down, the solver reports stagnation — reproducing Chaco's
    Table 1 failure mode.
    """
    from repro.partitioning.multilevel import _coarsen

    n = graph.n_vertices
    levels = _coarsen(graph, coarsest_size=max(64, n // 256), rng=rng)
    contraction = levels[-1].graph.n_vertices / max(1, n)
    if len(levels) > 1 and contraction > 0.6:
        raise ConvergenceError(
            "multilevel RQI: heavy-edge matching stalled "
            f"(coarsest level still has {contraction:.0%} of the vertices)"
        )
    # Dense Fiedler solve at the coarsest level.
    coarse_lap = _laplacian(levels[-1].graph).toarray()
    vals, vecs = np.linalg.eigh(coarse_lap)
    x = vecs[:, 1]
    # Project up and refine.
    for lvl in range(len(levels) - 1, 0, -1):
        mapping = levels[lvl].fine_to_coarse
        assert mapping is not None
        x = x[mapping]
        fine_lap = lap if lvl == 1 else _laplacian(levels[lvl - 1].graph)
        x = _rqi_refine(fine_lap, x, max_iter=max_iter, tol=tol,
                        final=(lvl == 1))
    if len(levels) == 1:
        x = _rqi_refine(lap, rng.standard_normal(n), max_iter=max_iter,
                        tol=tol, final=True)
    return x


def _rqi_refine(
    lap: sp.csr_matrix,
    x0: np.ndarray,
    *,
    max_iter: int,
    tol: float,
    final: bool,
) -> np.ndarray:
    """Rayleigh-quotient iteration from a starting vector.

    Intermediate levels accept a partially converged vector (the next
    level refines further); the finest level (``final``) must reach the
    residual tolerance or raise :class:`ConvergenceError`.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = lap.shape[0]
    ones = np.ones(n) / np.sqrt(n)

    def deflate(v: np.ndarray) -> np.ndarray:
        return v - (v @ ones) * ones

    x = deflate(np.asarray(x0, dtype=np.float64))
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ConvergenceError("RQI start collapsed onto the constant vector")
    x /= norm
    sigma = float(x @ (lap @ x))
    budget = max_iter if final else max(4, max_iter // 10)
    last_res = np.inf
    stall = 0
    for _ in range(budget):
        shifted = lap - sp.identity(n, format="csr") * sigma
        y, info = spla.minres(shifted, x, rtol=1e-10, maxiter=200)
        if info < 0 or not np.all(np.isfinite(y)):
            raise ConvergenceError(
                f"RQI inner solve failed (minres info={info}) at "
                f"sigma={sigma:.3e}"
            )
        y = deflate(y)
        norm = np.linalg.norm(y)
        if norm == 0:
            raise ConvergenceError("RQI collapsed onto the constant vector")
        x = y / norm
        sigma = float(x @ (lap @ x))
        res = float(np.linalg.norm(lap @ x - sigma * x))
        if res < tol:
            return x
        if res >= last_res * 0.999:
            stall += 1
            if stall >= 8:
                if final:
                    raise ConvergenceError(
                        f"RQI stagnated at residual {res:.3e} "
                        f"(sigma={sigma:.3e})"
                    )
                return x
        else:
            stall = 0
        last_res = res
    if final:
        raise ConvergenceError(f"RQI did not converge in {budget} iterations")
    return x


@algorithm("spectral_bisection")
def spectral_bisection(
    graph: Graph,
    *,
    method: str = "lanczos",
    refine: bool = True,
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Fiedler-vector bisection; boolean side array.

    Raises :class:`PartitioningError` when the spectral split is
    degenerate (one side below 1 % of the graph) — Lang's observation
    that "the spectral method tends to break off small parts" (paper
    §2.2), which Table 1 reports as a failure.
    """
    ctx = ensure_context(ctx)
    rng = rng or np.random.default_rng(0)
    f = fiedler_vector(graph, method=method, rng=rng)
    ctx.cost.serial(float(graph.n_arcs))
    side = f > np.median(f)
    if refine:
        side = fm_refine_bisection(graph, side)
    n = graph.n_vertices
    small = min(int(side.sum()), int((~side).sum()))
    if small < max(1, int(_DEGENERATE_FRACTION * n)):
        raise PartitioningError(
            f"degenerate spectral split: {small}/{n} vertices on one side"
        )
    return side


@algorithm("spectral_kway", operands=1)
def spectral_kway(
    graph: Graph,
    k: int,
    *,
    method: str = "lanczos",
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> np.ndarray:
    """Recursive spectral bisection to k parts (Chaco's RB mode)."""
    if k < 1:
        raise PartitioningError("k must be >= 1")
    if graph.directed:
        raise PartitioningError("partitioning requires an undirected graph")
    ctx = ensure_context(ctx)
    rng = rng or np.random.default_rng(0)
    parts = np.zeros(graph.n_vertices, dtype=np.int64)

    def recurse(vertices: np.ndarray, sub: Graph, k_here: int, base: int) -> None:
        if k_here == 1 or sub.n_vertices <= 1:
            parts[vertices] = base
            return
        side = spectral_bisection(sub, method=method, rng=rng, ctx=ctx)
        left, right = vertices[~side], vertices[side]
        k_left = k_here // 2
        sub_l, _ = induced_subgraph(graph, left)
        sub_r, _ = induced_subgraph(graph, right)
        recurse(left, sub_l, k_left, base)
        recurse(right, sub_r, k_here - k_left, base + k_left)

    recurse(np.arange(graph.n_vertices, dtype=VERTEX_DTYPE), graph, k, 0)
    validate_partition(graph, parts, k)
    return parts
