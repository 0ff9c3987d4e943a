"""pBD — approximate-betweenness divisive clustering (Algorithm 1).

The paper's flagship algorithm: Girvan–Newman's divisive loop with
three engineering levers that together buy the two-orders-of-magnitude
speedup of Figure 3(a):

1. **Approximate betweenness** (step 4): edge scores come from the
   adaptive-sampling estimator [7], traversing only a ``sample_fraction``
   (default 5 %) of each component's vertices instead of all of them.
2. **Granularity switch**: once a component shrinks below
   ``exact_threshold`` vertices, scoring switches to *exact* betweenness
   computed per component — which SNAP parallelizes coarsely, one
   component per thread ("semi-automatic, controlled by a user
   parameter"; the switch never changes Q, only the schedule).
3. **Biconnected-components pre-pass** (optional step 1): bridges'
   betweenness is pinned exactly (|A|·|B|) before any sampling.

The modularity trajectory and dendrogram bookkeeping (steps 6-9) are
shared with GN via :mod:`repro.community._divisive`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.centrality.approximate import sampled_betweenness
from repro.centrality.betweenness import brandes
from repro.community._divisive import divisive_clustering
from repro.community.modularity import modularity
from repro.community.result import ClusteringResult
from repro.graph.csr import EdgeSubsetView, Graph
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext


@algorithm("pbd")
def pbd(
    graph: Graph,
    *,
    sample_fraction: float = 0.05,
    min_samples: int = 32,
    exact_threshold: int = 32,
    bridge_prepass: bool = True,
    max_iterations: Optional[int] = None,
    patience: Optional[int] = None,
    max_stall: Optional[int] = None,
    batch_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> ClusteringResult:
    """Approximate-betweenness divisive clustering.

    Parameters mirror the paper's knobs: ``sample_fraction`` is the
    fraction of each component sampled per rescoring (5 % in the paper's
    experiments), ``exact_threshold`` is the component size at which the
    engine switches from fine-grained approximate scoring to
    coarse-grained exact scoring, and ``bridge_prepass`` toggles
    Algorithm 1's optional step 1.

    ``min_samples`` anchors an *absolute* per-component sample floor:
    the adaptive-sampling error bound [7] depends on the number of
    traversals, not the fraction, so the paper's 5 % — which is 20k
    sources on its 400k-vertex instances — must not degenerate to a
    handful of sources on small components.

    Both the sampled and the exact rescoring paths are coarse-grained
    runs of the batched Brandes engine (``batch_size`` lanes per
    sweep); the batches execute on ``ctx``'s configured
    serial/thread/process backend, and the modeled profile is the same
    on each.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction must be in (0, 1]")
    if exact_threshold < 0:
        raise ValueError("exact_threshold must be non-negative")
    rng = rng or np.random.default_rng(0)
    sampling_calls = {"approx": 0, "exact": 0}

    def score(view: EdgeSubsetView, members: np.ndarray, c: ParallelContext):
        if members.shape[0] <= exact_threshold:
            # Coarse-grained exact scoring of a small component.
            sampling_calls["exact"] += 1
            return brandes(
                view,
                sources=members.tolist(),
                granularity="coarse",
                batch_size=batch_size,
                ctx=c,
            ).edge
        sampling_calls["approx"] += 1
        k = min(
            members.shape[0],
            max(min_samples, int(np.ceil(sample_fraction * members.shape[0]))),
        )
        srcs = rng.choice(members, size=k, replace=False)
        res = brandes(
            view,
            sources=srcs.tolist(),
            granularity="coarse",
            batch_size=batch_size,
            ctx=c,
        )
        # Extrapolate to the full component (ranking is what matters).
        return res.edge * (members.shape[0] / k)

    trace, labels, _, ctx = divisive_clustering(
        graph,
        score,
        algorithm="pBD",
        ctx=ctx,
        max_iterations=max_iterations,
        patience=patience,
        max_stall=max_stall,
        bridge_prepass=bridge_prepass,
    )
    return ClusteringResult(
        labels,
        modularity(graph, labels),
        "pBD",
        extras={
            "trace": trace,
            "n_deletions": trace.n_steps,
            "scoring_calls": dict(sampling_calls),
        },
    )
