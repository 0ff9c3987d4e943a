"""Table 2 — modularity achieved by GN vs pBD / pMA / pLA (paper rows in
``repro.community.PAPER_TABLE2``: n, GN, pBD, pMA, pLA, best known).

karate is the exact Zachary graph; the other five are matched synthetic
surrogates (DESIGN.md §3), so absolute Q values differ from the paper —
the *shape* criteria are the paper's comparison: pBD tracks GN closely
(sometimes better), pMA and pLA land in the same band, and all stay
below the instance's attainable optimum.

GN is O(m) iterations of O(nm) scoring, so the two largest networks run
at reduced scale by default (the paper itself could only obtain the
published GN numbers at great cost); SNAP_BENCH_SCALE scales all sizes.
pBD samples 10 % per component here (the paper's 5 % is calibrated to
its 10⁴–10⁶-vertex instances; the estimator's error depends on the
*absolute* sample count, so smaller instances need a larger fraction to
see the same number of traversals).
"""

from __future__ import annotations

import numpy as np

from repro.community import PAPER_TABLE2, girvan_newman, pbd, pla, pma
from repro.datasets import load_surrogate

from _common import bench_scale, check, criterion, report, timed

# (dataset, default scale): the two largest are shrunk so GN finishes.
NETWORKS = [
    ("karate", 1.0),
    ("polbooks", 1.0),
    ("jazz", 1.0),
    ("metabolic", 1.0),
    ("email", 0.35),
    ("keysigning", 0.06),
]
PATIENCE = 20
ALGOS = ("GN", "pBD", "pMA", "pLA")


def test_table2_modularity(benchmark):
    def run():
        rows, wall = [], []
        for name, base_scale in NETWORKS:
            scale = min(1.0, base_scale * bench_scale(1.0))
            g = load_surrogate(name, scale=scale)
            rng = np.random.default_rng(1)
            r_gn, t_gn = timed(girvan_newman, g, patience=PATIENCE)
            r_bd, t_bd = timed(
                pbd, g, patience=PATIENCE, sample_fraction=0.1, rng=rng
            )
            r_ma = pma(g)
            r_la = pla(g, rng=np.random.default_rng(2))
            paper = PAPER_TABLE2[name]
            row = {"network": name, "n": g.n_vertices, "n paper": paper[0],
                   "m": g.n_edges}
            for i, (algo, r) in enumerate(zip(ALGOS, (r_gn, r_bd, r_ma, r_la))):
                row |= {algo: r.modularity, f"{algo} paper": paper[1 + i]}
            rows.append(row | {"best known paper": paper[5]})
            wall.append({"GN s": t_gn, "pBD s": t_bd})
        return rows, wall

    rows, wall = benchmark.pedantic(run, rounds=1, iterations=1)

    criteria = {}
    for row in rows:
        name, gn = row["network"], row["GN"]
        # pBD never collapses relative to GN...
        criteria[f"{name}: pBD >= GN - 0.2"] = check(row["pBD"], ">=", gn - 0.2)
        # The agglomerative heuristics land in the same band.
        for algo in ("pMA", "pLA"):
            criteria[f"{name}: {algo} >= GN - 0.12"] = check(row[algo], ">=", gn - 0.12)
        # Everything finds real structure on these community graphs.
        if name != "karate":
            low = min(row[algo] for algo in ALGOS)
            criteria[f"{name}: every Q > 0.25"] = check(low, ">", 0.25)
    # ...and tracks it closely on the large majority of networks (the
    # paper's headline quality claim; sampling noise on one small
    # surrogate is tolerated).
    close = sum(row["pBD"] >= row["GN"] - 0.08 for row in rows)
    criteria["networks where pBD >= GN - 0.08"] = check(close, ">=", len(rows) - 1)
    # karate (exact data): compare to the paper's absolute values.
    for algo, paper in (("GN", 0.401), ("pMA", 0.381)):
        q = rows[0][algo]
        criteria[f"karate: {algo} within 0.01 of paper {paper}"] = criterion(
            abs(q - paper) <= 0.01, q, [paper - 0.01, paper + 0.01]
        )
    # pBD is much cheaper than GN on the larger instances.
    big = wall[-1]
    wall_criteria = {
        f"{rows[-1]['network']}: GN s > 2 x pBD s": check(big["GN s"], ">", 2 * big["pBD s"])
    }
    report("table2_modularity", rows, criteria, wall, wall_criteria)
