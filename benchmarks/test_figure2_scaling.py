"""Figure 2 — execution time and relative speedup of pBD / pMA / pLA on
the RMAT-SF instance, for 1..32 threads.

Paper observations reproduced here:

* pBD is by far the slowest in absolute time (minutes, vs seconds for
  the agglomerative algorithms);
* all three scale, saturating well below ideal: at 32 threads the paper
  reports speedups of roughly 13 (pBD), 9 (pMA), 12 (pLA);
* pMA saturates lowest — its parallelism is fine-grained (per greedy
  merge step) while pBD/pLA parallelize whole traversals/passes.

Wall-clock T(1) is measured directly (single-core CPython); the
speedup-vs-threads curves come from the work–span/synchronization
profile each run records and the calibrated machine model (DESIGN.md
§3, substitution 1).  Default instances: R-MAT scale 10 for pBD and 12
for pMA/pLA, with the paper's edge factor 4 and one more scale per
doubling of ``SNAP_BENCH_SCALE`` (the paper's RMAT-SF is 400k/1.6M).
"""

from __future__ import annotations

import numpy as np

from repro.community import pbd, pla, pma
from repro.generators import rmat
from repro.parallel import ParallelContext
from repro.parallel.runtime import DEFAULT_THREAD_COUNTS

from _common import bench_scale, check, criterion, report, timed


PAPER_SPEEDUP_32 = {"pBD": 13.0, "pMA": 9.0, "pLA": 12.0}


def _instance(bits: int):
    return rmat(bits, 4.0, rng=np.random.default_rng(3))


def _curve(ctx: ParallelContext) -> dict[int, float]:
    return {p: ctx.cost.speedup(p) for p in DEFAULT_THREAD_COUNTS}


def test_figure2_scaling(benchmark):
    # pBD runs on a smaller instance than the (cheap) agglomerative
    # algorithms so the harness completes in minutes; the speedup curve
    # is profile-derived and stable across these sizes.
    extra_bits = max(0, int(np.log2(max(1.0, bench_scale(1.0)))))
    pbd_graph = _instance(10 + extra_bits)
    agg_graph = _instance(12 + extra_bits)

    def run():
        out = {}
        ctx = ParallelContext(32)
        _, t1 = timed(
            pbd, pbd_graph, patience=20, max_iterations=600,
            rng=np.random.default_rng(0), ctx=ctx,
        )
        out["pBD"] = (pbd_graph, t1, _curve(ctx), ctx.cost.modeled_time(1))
        ctx = ParallelContext(32)
        _, t1 = timed(pma, agg_graph, ctx=ctx)
        out["pMA"] = (agg_graph, t1, _curve(ctx), ctx.cost.modeled_time(1))
        ctx = ParallelContext(32)
        _, t1 = timed(pla, agg_graph, rng=np.random.default_rng(0), ctx=ctx)
        out["pLA"] = (agg_graph, t1, _curve(ctx), ctx.cost.modeled_time(1))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    criteria = {}
    curves = {name: c for name, (_, _, c, _) in results.items()}
    for name, curve in curves.items():
        criteria[f"{name}: speedup(1) == 1"] = criterion(curve[1] == 1.0, curve[1], 1.0)
        # monotone through the mid-range, bounded by p
        for p, s in list(curve.items())[1:]:
            criteria[f"{name}: speedup({p}) <= {p}"] = check(s, "<=", p + 1e-9)
        criteria[f"{name}: speedup(8) > 2.5"] = check(curve[8], ">", 2.5)
    s32 = {name: curve[32] for name, curve in curves.items()}
    for name, lo, hi in (("pBD", 6.0, 20.0), ("pMA", 3.0, 16.0), ("pLA", 6.0, 20.0)):
        criteria[f"{name}: {lo} <= speedup(32) <= {hi}"] = criterion(
            lo <= s32[name] <= hi, s32[name], [lo, hi]
        )
    # pMA saturates lowest (the paper's ordering)
    for other in ("pBD", "pLA"):
        criteria[f"pMA speedup(32) <= {other} speedup(32) + 0.5"] = check(
            s32["pMA"], "<=", s32[other] + 0.5
        )
    # pBD is the expensive algorithm in absolute time (per edge) — in the
    # machine model's T(1), the quantity the curves above are ratios of.
    # (Measured wall time is recorded but not a criterion: the batched
    # traversal engine sped pBD's wall clock up ~4x while pMA's
    # heap-bound merges stayed put, so a wall-clock ratio tests the host
    # and the engine, not the figure.)
    per_edge = {
        name: modeled_t1 / g.n_edges
        for name, (g, _, _, modeled_t1) in results.items()
    }
    for other in ("pMA", "pLA"):
        criteria[f"pBD modeled T(1) per edge > 3 x {other}'s"] = check(
            per_edge["pBD"], ">", 3 * per_edge[other]
        )

    rows = [
        {"algorithm": name, "n": g.n_vertices, "m": g.n_edges}
        | {f"p={p}": s for p, s in curve.items()}
        | {"p=32 paper": PAPER_SPEEDUP_32[name]}
        for name, (g, _, curve, _) in results.items()
    ]
    wall = [{"T(1) s": t1} for _, t1, _, _ in results.values()]
    report("figure2_scaling", rows, criteria, wall)
