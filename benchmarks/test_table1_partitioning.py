"""Table 1 — edge cut of balanced 32-way partitioning (paper rows in
``PAPER_ROWS``; "–" is a method that failed).

The paper's instances are ~200k vertices / ~1M edges; the default
harness scale is 2 % of that (≈4k vertices / ≈20k edges) so the bench
completes in minutes — set ``SNAP_BENCH_SCALE=50`` to reach paper size.

Shape criteria:
* the road cut is at least an order of magnitude below random and
  small-world cuts (the paper shows ≈2 orders at full scale; the gap
  grows with instance size because geometric cuts scale as O(√n) while
  random-graph cuts scale as O(m));
* the spectral methods either fail on the small-world instance (as
  Chaco does) or produce no better a cut than multilevel.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, PartitioningError
from repro.generators import gnm_random, rmat, road_network
from repro.partitioning import (
    edge_cut,
    multilevel_kway,
    multilevel_recursive_bisection,
    partition_balance,
    spectral_kway,
)

from _common import bench_scale, check, criterion, report

K = 32
PAPER_ROWS = {
    "Physical (road)": (1856, 1703, 2937, 3913),
    "Sparse random": (685211, 706625, 717960, 737747),
    "Small-world": (805903, 736560, None, None),
}


def _instances():
    scale = bench_scale(0.02)
    n = int(200_000 * scale)
    m = int(1_000_000 * scale)
    rng = np.random.default_rng(0)
    return {
        "Physical (road)": road_network(n, max(3, m // n), rng=rng),
        "Sparse random": gnm_random(n, m, rng=rng),
        "Small-world": rmat(
            max(6, int(round(np.log2(n)))), m / n, rng=rng
        ),
    }


def _partitioners():
    return {
        "Metis-kway": lambda g: multilevel_kway(g, K),
        "Metis-recur": lambda g: multilevel_recursive_bisection(g, K),
        "Chaco-RQI": lambda g: spectral_kway(g, K, method="rqi"),
        "Chaco-LAN": lambda g: spectral_kway(g, K, method="lanczos"),
    }


def test_table1_edge_cuts(benchmark):
    instances = _instances()
    partitioners = _partitioners()

    def run():
        cuts: dict[str, dict[str, float | None]] = {}
        criteria = {}
        for gname, graph in instances.items():
            cuts[gname] = {}
            for pname, part in partitioners.items():
                try:
                    labels = part(graph)
                except (ConvergenceError, PartitioningError):
                    cuts[gname][pname] = None  # the paper's "–"
                    continue
                bal = partition_balance(graph, labels, K)
                criteria[f"{pname} on {gname}: balance < 1.6"] = check(bal, "<", 1.6)
                cuts[gname][pname] = edge_cut(graph, labels)
        return cuts, criteria

    cuts, criteria = benchmark.pedantic(run, rounds=1, iterations=1)

    road, rand, sw = (cuts[g] for g in PAPER_ROWS)
    for pname in ("Metis-kway", "Metis-recur"):
        r, x, w = road[pname], rand[pname], sw[pname]
        criteria[f"{pname}: road and random cuts exist"] = criterion(None not in (r, x), [r, x], None)
        criteria[f"{pname}: small-world cut exists"] = criterion(w is not None, w, None)
        for other, cut in (("random", x), ("small-world", w)):
            criteria[f"{pname}: {other} cut > 8 x road cut"] = criterion(
                None not in (r, cut) and cut > 8 * r, cut, r and 8 * r
            )
    # Spectral on small-world: fails (paper behaviour) or at least is
    # no better than the multilevel cut.
    multilevel = [sw["Metis-kway"], sw["Metis-recur"]]
    bound = None if None in multilevel else 0.5 * min(multilevel)
    for pname in ("Chaco-RQI", "Chaco-LAN"):
        w = sw[pname]
        criteria[f"{pname}: small-world fails or cut > 0.5 x best multilevel"] = (
            criterion(w is None or (bound is not None and w > bound), w, bound)
        )

    rows = [
        {"instance": gname} | {
            col: val
            for pname, paper in zip(partitioners, PAPER_ROWS[gname])
            for col, val in ((pname, row[pname]), (f"{pname} paper", paper))
        }
        for gname, row in cuts.items()
    ]
    report("table1_partitioning", rows, criteria)
