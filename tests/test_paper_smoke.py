"""Paper smoke: three of the paper's results at a size tier-1 can afford.

The full harnesses under ``benchmarks/`` (Tables 1-3, Figures 2-3, run
with ``pytest benchmarks/``) write the records behind EXPERIMENTS.md and
take minutes.  This file checks, in seconds, that

* karate's Table 2 row holds: GN and pMA within 0.01 of the paper's Q;
* Table 3's inventory holds at 1 % scale: every surrogate is directed
  as in the paper, as dense within [0.4x, 2.5x], degree-skewed and of
  low effective diameter;
* Figure 2's ordering holds at R-MAT scale 10: pMA saturates lowest at
  32 threads and pBD costs far more modeled work per edge.

Only values are asserted, never wall-clock time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.community import PAPER_TABLE2, girvan_newman, pbd, pla, pma
from repro.datasets import SURROGATE_SPECS, karate_club, table3_networks
from repro.generators import rmat
from repro.graph.builder import induced_subgraph
from repro.kernels import largest_component
from repro.metrics import effective_diameter
from repro.metrics.basic import degree_skewness
from repro.parallel import ParallelContext


def test_table2_karate_row():
    g = karate_club()
    _, gn_paper, _, pma_paper, _, _ = PAPER_TABLE2["karate"]
    assert girvan_newman(g, patience=20).modularity == pytest.approx(gn_paper, abs=0.01)
    assert pma(g).modularity == pytest.approx(pma_paper, abs=0.01)


@pytest.fixture(scope="module")
def table3():
    return table3_networks(scale=0.01)


@pytest.mark.parametrize("name", ["PPI", "Citations", "DBLP", "NDwww", "Actor", "RMAT-SF"])
def test_table3_inventory(table3, name):
    g, spec = table3[name], SURROGATE_SPECS[name]
    assert g.directed == spec.directed
    paper_density = spec.paper_m / spec.paper_n
    assert 0.4 * paper_density < g.n_edges / g.n_vertices < 2.5 * paper_density
    und = g.as_undirected() if g.directed else g
    assert degree_skewness(und) > 0.5
    core, _ = induced_subgraph(und, largest_component(und))
    assert effective_diameter(core, n_samples=24, rng=np.random.default_rng(0)) <= 12


def test_figure2_ordering_at_scale_10():
    g = rmat(10, 4.0, rng=np.random.default_rng(3))
    runs = {
        "pBD": lambda ctx: pbd(g, patience=20, max_iterations=60,
                               rng=np.random.default_rng(0), ctx=ctx),
        "pMA": lambda ctx: pma(g, ctx=ctx),
        "pLA": lambda ctx: pla(g, rng=np.random.default_rng(0), ctx=ctx),
    }
    s32, per_edge = {}, {}
    for name, run in runs.items():
        ctx = ParallelContext(32)
        run(ctx)
        s32[name] = ctx.cost.speedup(32)
        per_edge[name] = ctx.cost.modeled_time(1) / g.n_edges
    # every algorithm scales; pMA's fine-grained merges saturate lowest
    assert min(s32.values()) > 2.0
    assert s32["pMA"] <= min(s32["pBD"], s32["pLA"]) + 0.5
    # pBD is the expensive algorithm in modeled T(1)
    assert per_edge["pBD"] > 3 * max(per_edge["pMA"], per_edge["pLA"])
