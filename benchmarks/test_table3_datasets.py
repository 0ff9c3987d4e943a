"""Table 3 — the small-world networks used in the experimental study
(paper label, description, n, m and directedness in
``repro.datasets.SURROGATE_SPECS``).

This harness regenerates the inventory from the surrogate generators:
it builds each instance (at the default 5 % scale; SNAP_BENCH_SCALE=20
reaches paper size), verifies directedness and density against the
paper's metadata, and confirms the *small-world* character the paper
relies on (skewed degrees, low effective diameter) for each undirected
instance.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import SURROGATE_SPECS, table3_networks
from repro.kernels import largest_component
from repro.graph.builder import induced_subgraph
from repro.metrics import effective_diameter
from repro.metrics.basic import degree_skewness

from _common import bench_scale, check, criterion, report


def test_table3_dataset_inventory(benchmark):
    scale = min(1.0, 0.05 * bench_scale(1.0))

    def run():
        rows = []
        for name, g in table3_networks(scale=scale).items():
            spec = SURROGATE_SPECS[name]
            und = g.as_undirected() if g.directed else g
            core, _ = induced_subgraph(und, largest_component(und))
            rows.append({
                "label": name, "network": spec.kind,
                "n": g.n_vertices, "n paper": spec.paper_n,
                "m": g.n_edges, "m paper": spec.paper_m,
                "directed": g.directed, "directed paper": spec.directed,
                "degree skew": degree_skewness(und),
                "effective diameter": effective_diameter(
                    core, n_samples=24, rng=np.random.default_rng(0)
                ),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    criteria = {}
    for r in rows:
        name = r["label"]
        criteria[f"{name}: directed as in the paper"] = criterion(
            r["directed"] == r["directed paper"], r["directed"], r["directed paper"]
        )
        # density (m/n) of the surrogate tracks the paper's within 2x
        paper_density = r["m paper"] / r["n paper"]
        density = r["m"] / r["n"]
        lo, hi = 0.4 * paper_density, 2.5 * paper_density
        criteria[f"{name}: 0.4 x paper density < density < 2.5 x paper density"] = (
            criterion(lo < density < hi, density, [lo, hi])
        )
        # small-world character: skewed degrees, low diameter
        criteria[f"{name}: degree skew > 0.5"] = check(r["degree skew"], ">", 0.5)
        criteria[f"{name}: effective diameter <= 12"] = check(
            r["effective diameter"], "<=", 12
        )
    report("table3_datasets", rows, criteria)
