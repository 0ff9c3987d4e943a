"""Differential fuzz harness: corpus × backends × oracles.

The driver generates a seeded corpus of small graphs (random families
plus pathological shapes), builds each graph's CSR once, runs each
registered check across the serial/thread/process execution backends,
and compares every result against the pure-Python oracles in
:mod:`repro.qa.oracles` under per-check tolerance rules.  Structural
invariants (:mod:`repro.qa.invariants`) are asserted on every CSR and
on result shapes.  One corpus family carries every edge at weight 1.0,
so each kernel's weighted branch must give the hop-count answer.

On a mismatch the failing graph is shrunk by greedy vertex deletion
then greedy edge deletion to a minimal reproducer, which is dumped as a
commented edge-list artifact under ``benchmarks/results/qa/`` so the
regression can be replayed from the saved file.

Fault injection (``fault=``) corrupts one check's kernel output on
purpose; the harness's self-test uses it to prove that a real bug would
be caught *and* shrunk small (see ``tests/test_differential.py``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.graph import builder
from repro.graph.csr import Graph
from repro.parallel.runtime import ParallelContext
from repro.qa import invariants, oracles

__all__ = [
    "CorpusGraph",
    "Failure",
    "Report",
    "corpus",
    "run_differential",
    "shrink",
    "BACKENDS",
    "CHECKS",
    "FAULTS",
]

BACKENDS = ("serial", "thread", "process")

DEFAULT_ARTIFACT_DIR = Path("benchmarks") / "results" / "qa"

_FLOAT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CorpusGraph:
    """One fuzz input: a raw edge list, before any canonicalization.

    Edge tuples are ``(u, v)`` or ``(u, v, w)``; self-loops and
    duplicates are allowed on purpose — dropping them identically on
    both the oracle and the optimized path is part of the contract
    under test.
    """

    name: str
    n: int
    edges: tuple

    @property
    def weighted(self) -> bool:
        return any(len(e) > 2 for e in self.edges)

    def ref(self) -> oracles.RefGraph:
        return oracles.RefGraph(self.n, self.edges)

    def csr(self) -> Graph:
        src = np.asarray([e[0] for e in self.edges], dtype=np.int64)
        dst = np.asarray([e[1] for e in self.edges], dtype=np.int64)
        w = (
            np.asarray([e[2] if len(e) > 2 else 1.0 for e in self.edges])
            if self.weighted
            else None
        )
        return builder.from_edge_array(self.n, src, dst, weights=w)


def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _cycle(n: int) -> list[tuple[int, int]]:
    return _path(n) + [(n - 1, 0)]


def _star(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def _complete(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _pathological() -> list[CorpusGraph]:
    """Fixed corner-case graphs every fuzz run always includes."""
    from repro.datasets.karate import KARATE_EDGES

    two_cliques = (
        _complete(4)
        + [(u + 4, v + 4) for u, v in _complete(4)]
        + [(3, 4)]
    )
    multi_component = _path(3) + [(4, 5), (5, 6), (4, 6)] + [(8, 9)]
    self_loopy = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 1), (2, 0), (3, 3)]
    tie_weights = [
        (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
        (3, 4, 2.0), (4, 5, 2.0), (5, 3, 2.0), (3, 5, 2.0),
    ]
    return [
        CorpusGraph("empty_0", 0, ()),
        CorpusGraph("isolated_5", 5, ()),
        CorpusGraph("single_edge", 2, ((0, 1),)),
        CorpusGraph("path_8", 8, tuple(_path(8))),
        CorpusGraph("cycle_6", 6, tuple(_cycle(6))),
        CorpusGraph("star_9", 9, tuple(_star(9))),
        CorpusGraph("complete_6", 6, tuple(_complete(6))),
        CorpusGraph("two_cliques_bridge", 8, tuple(two_cliques)),
        CorpusGraph("multi_component", 10, tuple(multi_component)),
        CorpusGraph("self_loop_heavy", 4, tuple(self_loopy)),
        CorpusGraph("tie_weights", 6, tuple(tie_weights)),
        CorpusGraph("karate", 34, tuple(KARATE_EDGES)),
    ]


def _rand_er(rng: random.Random, name: str) -> CorpusGraph:
    n = rng.randint(2, 16)
    m = rng.randint(0, n * (n - 1) // 2)
    edges = []
    for _ in range(m):
        edges.append((rng.randrange(n), rng.randrange(n)))  # loops/dups ok
    return CorpusGraph(name, n, tuple(edges))


def _rand_rmat(rng: random.Random, name: str) -> CorpusGraph:
    """Tiny pure-Python R-MAT sampler (quadrant recursion)."""
    scale = rng.randint(3, 4)
    n = 1 << scale
    m = rng.randint(n, 3 * n)
    edges = []
    for _ in range(m):
        u = v = 0
        for _ in range(scale):
            r = rng.random()
            # (a, b, c, d) = (0.45, 0.22, 0.22, 0.11)
            if r < 0.45:
                q = 0
            elif r < 0.67:
                q = 1
            elif r < 0.89:
                q = 2
            else:
                q = 3
            u = 2 * u + (q >> 1)
            v = 2 * v + (q & 1)
        edges.append((u, v))
    return CorpusGraph(name, n, tuple(edges))


def _rand_planted(rng: random.Random, name: str) -> CorpusGraph:
    blocks = rng.randint(2, 3)
    size = rng.randint(3, 5)
    n = blocks * size
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            same = u // size == v // size
            p = 0.7 if same else 0.08
            if rng.random() < p:
                edges.append((u, v))
    return CorpusGraph(name, n, tuple(edges))


def _rand_weighted(rng: random.Random, name: str) -> CorpusGraph:
    base = _rand_er(rng, name)
    # Small integer weight pool forces plenty of MST/SSSP ties.
    edges = tuple(
        (u, v, float(rng.choice((1, 1, 2, 3, 5)))) for u, v in base.edges
    )
    return CorpusGraph(name, base.n, edges)


def _rand_unit_weighted(rng: random.Random, name: str) -> CorpusGraph:
    # Weighted inputs whose weights are all 1.0: every kernel's weighted
    # branch must answer exactly as its hop-count branch does.
    base = _rand_er(rng, name)
    return CorpusGraph(name, base.n, tuple((u, v, 1.0) for u, v in base.edges))


_FAMILIES = (
    _rand_er, _rand_rmat, _rand_planted, _rand_weighted, _rand_unit_weighted
)


def corpus(seed: int, n_graphs: int = 56) -> list[CorpusGraph]:
    """Seeded fuzz corpus: all pathological cases + random families."""
    items = _pathological()
    rng = random.Random(seed)
    i = 0
    while len(items) < n_graphs:
        fam = _FAMILIES[i % len(_FAMILIES)]
        items.append(fam(rng, f"{fam.__name__.lstrip('_')}_{i}"))
        i += 1
    return items[:n_graphs]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Check:
    """One differential check: optimized run vs oracle expectation."""

    name: str
    run: Callable  # (graph: Graph, ctx) -> value
    oracle: Callable  # (ref: RefGraph) -> expected
    compare: Callable  # (value, expected, graph) -> Optional[str]
    weighted_ok: bool = True
    min_vertices: int = 0


def _cmp_int_arrays(value, expected, graph) -> Optional[str]:
    got = np.asarray(value, dtype=np.int64)
    exp = np.asarray(expected, dtype=np.int64)
    if got.shape != exp.shape:
        return f"shape {got.shape} != {exp.shape}"
    if not np.array_equal(got, exp):
        idx = np.nonzero(got != exp)[0][:5].tolist()
        return f"mismatch at {idx}: got {got[idx].tolist()} expected {exp[idx].tolist()}"
    return None


def _cmp_float_arrays(value, expected, graph) -> Optional[str]:
    got = np.asarray(value, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    if got.shape != exp.shape:
        return f"shape {got.shape} != {exp.shape}"
    # isclose treats equal signed infinities as close, which is the
    # semantics we want for unreachable-vertex distances.
    ok = np.isclose(got, exp, rtol=_FLOAT_TOL, atol=_FLOAT_TOL, equal_nan=True)
    if not ok.all():
        i = int(np.nonzero(~ok)[0][0])
        return f"deviation at index {i}: got {got[i]!r}, expected {exp[i]!r}"
    return None


def _cmp_scalar(value, expected, graph) -> Optional[str]:
    if abs(float(value) - float(expected)) > _FLOAT_TOL * max(
        1.0, abs(float(expected))
    ):
        return f"got {float(value)!r}, expected {float(expected)!r}"
    return None


def _run_bfs(graph: Graph, ctx) -> np.ndarray:
    from repro.kernels.bfs import bfs

    res = bfs(graph, 0, ctx=ctx)
    shape_bad = invariants.check_distances(res.distances, graph.n_vertices, 0)
    if shape_bad:
        raise invariants.InvariantViolation("; ".join(shape_bad))
    return res.distances


def _msbfs_sources(n: int) -> list[int]:
    """70 lanes — two msbfs words, the second partial — striding over
    the vertices so that small graphs repeat sources."""
    return [(7 * i) % n for i in range(70)]


def _oracle_msbfs(ref) -> list:
    return [oracles.bfs_levels(ref, s) for s in _msbfs_sources(ref.n)]


def _run_msbfs(graph: Graph, ctx) -> np.ndarray:
    from repro.kernels.bfs import msbfs

    return msbfs(graph, _msbfs_sources(graph.n_vertices), ctx=ctx).distances


def _run_cc(method: str):
    def run(graph: Graph, ctx) -> np.ndarray:
        from repro.kernels.connected import connected_components

        labels = connected_components(graph, ctx=ctx, method=method)
        shape_bad = invariants.check_partition(labels, graph.n_vertices)
        if shape_bad:
            raise invariants.InvariantViolation("; ".join(shape_bad))
        return labels

    return run


def _run_betweenness(graph: Graph, ctx) -> np.ndarray:
    from repro.centrality.betweenness import betweenness_centrality

    scores = betweenness_centrality(graph, ctx=ctx)
    shape_bad = invariants.check_centrality(
        scores, graph.n_vertices, name="betweenness"
    )
    if shape_bad:
        raise invariants.InvariantViolation("; ".join(shape_bad))
    return scores


def _run_edge_betweenness(graph: Graph, ctx) -> np.ndarray:
    from repro.centrality.betweenness import edge_betweenness_centrality

    return edge_betweenness_centrality(graph, ctx=ctx)


def _oracle_brandes(ref: oracles.RefGraph):
    """Oracle ``(vertex, edge)`` scores, mirroring the kernel's auto-
    detect: non-unit weights switch both to Dijkstra order."""
    weighted = any(w != 1.0 for _, _, w in ref.edges)
    return oracles.brandes_betweenness(ref, weighted=weighted)


def _cmp_edge_scores(value, expected, graph) -> Optional[str]:
    """Edge scores by edge id against the oracle's by endpoint pair."""
    u, v = graph.edge_endpoints()
    keys = list(zip(u.tolist(), v.tolist()))
    if sorted(keys) != sorted(expected):
        return "edge set differs from the oracle's"
    return _cmp_float_arrays(value, [expected[e] for e in keys], graph)


def _run_closeness(graph: Graph, ctx) -> np.ndarray:
    from repro.centrality.closeness import closeness_centrality

    scores = closeness_centrality(graph, ctx=ctx)
    shape_bad = invariants.check_centrality(
        scores, graph.n_vertices, name="closeness"
    )
    if shape_bad:
        raise invariants.InvariantViolation("; ".join(shape_bad))
    return scores


def _run_sssp(engine: str):
    def run(graph: Graph, ctx) -> np.ndarray:
        from repro.kernels.sssp import delta_stepping, dijkstra

        fn = dijkstra if engine == "dijkstra" else delta_stepping
        return fn(graph, 0, ctx=ctx).distances

    return run


def _run_msf(method: str):
    def run(graph: Graph, ctx) -> float:
        from repro.kernels.mst import forest_weight, minimum_spanning_forest

        ids = minimum_spanning_forest(graph, ctx=ctx, method=method)
        shape_bad = invariants.check_forest(graph, ids)
        if shape_bad:
            raise invariants.InvariantViolation("; ".join(shape_bad))
        return forest_weight(graph, ids)

    return run


def _part_labels(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64) % 3 if n else np.empty(0, dtype=np.int64)


def _run_modularity(graph: Graph, ctx) -> tuple[float, float]:
    from repro.community.modularity import modularity
    from repro.kernels.connected import connected_components

    comp = connected_components(graph, ctx=ctx)
    return (
        modularity(graph, _part_labels(graph.n_vertices)),
        modularity(graph, comp),
    )


def _oracle_modularity(ref: oracles.RefGraph) -> tuple[float, float]:
    comp = oracles.connected_components(ref)
    return (
        oracles.modularity(ref, [v % 3 for v in range(ref.n)]),
        oracles.modularity(ref, comp),
    )


def _cmp_scalar_pair(value, expected, graph) -> Optional[str]:
    for got, exp in zip(value, expected):
        msg = _cmp_scalar(got, exp, graph)
        if msg:
            return msg
    return None


def _run_edge_cut(graph: Graph, ctx) -> float:
    from repro.partitioning.metrics import edge_cut

    return edge_cut(graph, _part_labels(graph.n_vertices))


def _run_cnm(graph: Graph, ctx):
    from repro.community.cnm import cnm

    result = cnm(graph, ctx=ctx)
    bad = invariants.check_partition(result.labels, graph.n_vertices)
    dendro = result.extras.get("dendrogram")
    if dendro is not None:
        bad += invariants.check_dendrogram(dendro.merges, graph.n_vertices)
    if bad:
        raise invariants.InvariantViolation("; ".join(bad))
    return float(result.modularity), result.labels


def _cmp_reported_modularity(value, ref, graph) -> Optional[str]:
    # Community detection is heuristic, so the *labels* have no oracle
    # value; the differential claim is that the modularity the algorithm
    # reports equals the oracle's modularity of the labels it returned.
    reported, labels = value
    expect = oracles.modularity(ref, [int(x) for x in labels])
    if abs(reported - expect) > 1e-6:
        return f"reported modularity {reported!r} != oracle {expect!r} for its own labels"
    return None


def _run_clustering(graph: Graph, ctx) -> np.ndarray:
    from repro.metrics.clustering import local_clustering_coefficients

    return local_clustering_coefficients(graph, ctx=ctx)


def _run_pla_multilevel(graph: Graph, ctx):
    from repro.community.pla import pla

    result = pla(graph, multilevel=True, ctx=ctx)
    bad = invariants.check_partition(result.labels, graph.n_vertices)
    if bad:
        raise invariants.InvariantViolation("; ".join(bad))
    return float(result.modularity), result.labels


def _run_sharded(kind: str):
    """Sharded (out-of-core) twin of an in-core check: build a temp
    shard set, run the shard-at-a-time kernel, assert bit-identity
    against the in-core path, then answer to the same oracle."""

    def run(graph: Graph, ctx):
        import tempfile

        from repro.sharded import (
            build_shard_set,
            sharded_connected_components,
            sharded_msbfs,
            sharded_pla,
        )

        with tempfile.TemporaryDirectory(prefix="qa-shard-") as tmp:
            ss = build_shard_set(
                graph, tmp, k=min(3, max(1, graph.n_vertices)), ctx=ctx
            )
            if kind == "msbfs":
                from repro.kernels.bfs import msbfs

                sources = _msbfs_sources(graph.n_vertices)
                res = sharded_msbfs(ss, sources, ctx=ctx)
                ref = msbfs(graph, sources, ctx=ctx)
                if not np.array_equal(res.distances, ref.distances):
                    raise invariants.InvariantViolation(
                        "sharded msbfs differs from in-core msbfs"
                    )
                return res.distances
            if kind == "components":
                from repro.kernels.connected import connected_components

                labels = sharded_connected_components(ss, ctx=ctx)
                ref = connected_components(graph, ctx=ctx)
                if not np.array_equal(labels, ref):
                    raise invariants.InvariantViolation(
                        "sharded components differ from in-core components"
                    )
                return labels
            from repro.community.pla import pla

            res = sharded_pla(ss, ctx=ctx)
            ref = pla(graph, multilevel=True, ctx=ctx)
            if res.modularity != ref.modularity or not np.array_equal(
                res.labels, ref.labels
            ):
                raise invariants.InvariantViolation(
                    "sharded pla differs from in-core pla(multilevel=True)"
                )
            return float(res.modularity), res.labels

    return run


CHECKS: tuple[Check, ...] = (
    Check("bfs", _run_bfs, lambda ref: oracles.bfs_levels(ref, 0),
          _cmp_int_arrays, min_vertices=1),
    Check("msbfs", _run_msbfs, _oracle_msbfs,
          _cmp_int_arrays, min_vertices=1),
    Check("connected_sv", _run_cc("sv"), oracles.connected_components,
          _cmp_int_arrays),
    Check("connected_bfs", _run_cc("bfs"), oracles.connected_components,
          _cmp_int_arrays),
    Check("betweenness", _run_betweenness,
          lambda ref: _oracle_brandes(ref)[0], _cmp_float_arrays),
    Check("edge_betweenness", _run_edge_betweenness,
          lambda ref: _oracle_brandes(ref)[1], _cmp_edge_scores),
    Check("closeness", _run_closeness, oracles.closeness, _cmp_float_arrays),
    Check("sssp_dijkstra", _run_sssp("dijkstra"),
          lambda ref: oracles.dijkstra_distances(ref, 0),
          _cmp_float_arrays, min_vertices=1),
    Check("sssp_delta", _run_sssp("delta"),
          lambda ref: oracles.dijkstra_distances(ref, 0),
          _cmp_float_arrays, min_vertices=1),
    Check("msf_boruvka", _run_msf("boruvka"), oracles.msf_weight, _cmp_scalar),
    Check("msf_kruskal", _run_msf("kruskal"), oracles.msf_weight, _cmp_scalar),
    Check("modularity", _run_modularity, _oracle_modularity, _cmp_scalar_pair),
    Check("edge_cut", _run_edge_cut,
          lambda ref: oracles.edge_cut(ref, [v % 3 for v in range(ref.n)]),
          _cmp_scalar),
    Check("clustering", _run_clustering, oracles.local_clustering,
          _cmp_float_arrays),
    # min_vertices=1: clustering an empty graph raises by contract.
    Check("cnm", _run_cnm, lambda ref: ref, _cmp_reported_modularity,
          min_vertices=1),
    Check("pla_multilevel", _run_pla_multilevel, lambda ref: ref,
          _cmp_reported_modularity, min_vertices=1),
    # Out-of-core twins (repro.sharded): bit-identical to the in-core
    # kernels by construction, and answerable to the same oracles.
    Check("sharded_msbfs", _run_sharded("msbfs"), _oracle_msbfs,
          _cmp_int_arrays, min_vertices=1),
    Check("sharded_components", _run_sharded("components"),
          oracles.connected_components, _cmp_int_arrays),
    Check("sharded_pla", _run_sharded("pla"), lambda ref: ref,
          _cmp_reported_modularity, min_vertices=1),
)


# ---------------------------------------------------------------------------
# Fault injection (harness self-test)
# ---------------------------------------------------------------------------
def _fault_bfs_plus_one(value, graph):
    """Corrupt the farthest reached vertex's distance by +1."""
    dist = np.array(value)
    reached = np.nonzero(dist > 0)[0]
    if reached.shape[0]:
        dist[reached[-1]] += 1
    return dist


def _fault_cc_orphan(value, graph):
    """Split the highest vertex out of its component."""
    labels = np.array(value)
    if labels.shape[0]:
        labels[-1] = labels.shape[0] - 1
    return labels


def _fault_betweenness_scale(value, graph):
    return np.asarray(value) * 1.0001


FAULTS: dict[str, tuple[str, Callable]] = {
    "bfs_plus_one": ("bfs", _fault_bfs_plus_one),
    "cc_orphan": ("connected_sv", _fault_cc_orphan),
    "betweenness_scale": ("betweenness", _fault_betweenness_scale),
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
@dataclass
class Failure:
    """One oracle mismatch / invariant violation, with its reproducer."""

    check: str
    backend: str
    graph_name: str
    detail: str
    n_vertices: int
    edges: tuple
    minimal: Optional[CorpusGraph] = None
    artifact: Optional[Path] = None

    def summary(self) -> str:
        where = f"{self.check} [{self.backend}] on {self.graph_name}"
        extra = ""
        if self.minimal is not None:
            extra = (
                f" (shrunk to {self.minimal.n} vertices / "
                f"{len(self.minimal.edges)} edges)"
            )
        return f"{where}: {self.detail}{extra}"


@dataclass
class Report:
    """Outcome of one differential run."""

    seed: int
    n_graphs: int = 0
    n_runs: int = 0
    failures: list[Failure] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    backends: tuple = BACKENDS
    faults_injected: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        chaos = (
            f" chaos_faults={self.faults_injected}"
            if self.faults_injected
            else ""
        )
        lines = [
            f"differential check: seed={self.seed} graphs={self.n_graphs} "
            f"runs={self.n_runs} failures={len(self.failures)}{chaos} "
            f"[{self.elapsed_seconds:.1f}s]"
        ]
        lines += [f"  FAIL {f.summary()}" for f in self.failures]
        return "\n".join(lines)


def _applicable(check: Check, item: CorpusGraph) -> bool:
    if item.n < check.min_vertices:
        return False
    if item.weighted and not check.weighted_ok:
        return False
    return True


def _evaluate(
    check: Check,
    item: CorpusGraph,
    ctx,
    fault_fn: Optional[Callable],
) -> Optional[str]:
    """Run one (check, graph) cell.  Returns the failure detail string,
    or None on agreement."""
    try:
        graph = item.csr()
        invariants.assert_valid(graph)
        value = check.run(graph, ctx)
        if fault_fn is not None:
            value = fault_fn(value, graph)
        expected = check.oracle(item.ref())
        return check.compare(value, expected, graph)
    except Exception as exc:  # crash or invariant violation IS a failure
        return f"{type(exc).__name__}: {exc}"


def shrink(
    item: CorpusGraph,
    still_fails: Callable[[CorpusGraph], bool],
    *,
    max_evals: int = 600,
) -> CorpusGraph:
    """Greedy minimization: drop vertices, then edges, while the failure
    persists.  Deterministic, budget-bounded."""
    best = item
    evals = 0

    def try_candidate(cand: CorpusGraph) -> bool:
        nonlocal evals, best
        evals += 1
        if still_fails(cand):
            best = cand
            return True
        return False

    progress = True
    while progress and evals < max_evals:
        progress = False
        for v in reversed(range(best.n)):
            kept = []
            for e in best.edges:
                if e[0] == v or e[1] == v:
                    continue
                u2 = e[0] - 1 if e[0] > v else e[0]
                v2 = e[1] - 1 if e[1] > v else e[1]
                kept.append((u2, v2, *e[2:]))
            cand = CorpusGraph(best.name, best.n - 1, tuple(kept))
            if try_candidate(cand):
                progress = True
                break
            if evals >= max_evals:
                break
    progress = True
    while progress and evals < max_evals:
        progress = False
        for i in range(len(best.edges)):
            cand = CorpusGraph(
                best.name, best.n, best.edges[:i] + best.edges[i + 1 :]
            )
            if try_candidate(cand):
                progress = True
                break
            if evals >= max_evals:
                break
    return best


def _write_artifact(failure: Failure, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    item = failure.minimal if failure.minimal is not None else CorpusGraph(
        failure.graph_name, failure.n_vertices, failure.edges
    )
    path = directory / (
        f"{failure.check}-{failure.backend}-{failure.graph_name}.edgelist"
    )
    lines = [
        f"# differential failure: {failure.check} backend={failure.backend}",
        f"# source graph: {failure.graph_name}",
        f"# detail: {failure.detail}",
        f"# n_vertices: {item.n}",
        "# replay: read_edge_list(path, n_vertices=<n_vertices>) and rerun the check",
    ]
    for e in item.edges:
        lines.append(" ".join(str(x) for x in e))
    path.write_text("\n".join(lines) + "\n")
    return path


def run_differential(
    seed: int = 0,
    *,
    n_graphs: int = 56,
    budget: Optional[float] = None,
    backends: Sequence[str] = BACKENDS,
    checks: Optional[Sequence[str]] = None,
    n_workers: int = 2,
    fault: Optional[str] = None,
    chaos: "bool | float" = False,
    artifact_dir: Optional[Path] = DEFAULT_ARTIFACT_DIR,
    shrink_failures: bool = True,
    max_failures: int = 10,
) -> Report:
    """Run the differential corpus.  See module docstring.

    ``budget`` is a soft wall-clock limit in seconds: the corpus loop
    stops starting new graphs once it is exceeded (every started graph
    finishes, so results are well-formed).  ``fault`` names an entry of
    :data:`FAULTS` to corrupt on purpose.  ``chaos`` arms the seeded
    :class:`~repro.parallel.chaos.ChaosMonkey` on every backend context
    (``True`` = default 5% fault rate, a float = that rate), so the
    oracle comparison additionally proves that injected worker faults
    (transient raises, hard worker exits) never change results — the
    resilience layer must recover bit-identically.  At most
    ``max_failures`` failures are collected (then the run
    short-circuits); each failure is shrunk and dumped under
    ``artifact_dir`` unless disabled.
    """
    t0 = time.perf_counter()
    fault_check, fault_fn = FAULTS[fault] if fault is not None else (None, None)
    active = [
        c for c in CHECKS if checks is None or c.name in checks
    ]
    if checks is not None:
        unknown = set(checks) - {c.name for c in CHECKS}
        if unknown:
            raise ValueError(f"unknown check(s): {sorted(unknown)}")
    report = Report(seed=seed, backends=tuple(backends))

    def _make_ctx(backend: str) -> ParallelContext:
        if not chaos:
            return ParallelContext(n_workers, backend=backend)
        from repro.parallel.chaos import ChaosMonkey
        from repro.parallel.resilience import FaultPolicy

        # The monkey only faults first attempts, so max_retries >= 1
        # guarantees completion; results must still match the oracles.
        rate = 0.05 if chaos is True else float(chaos)
        return ParallelContext(
            n_workers,
            backend=backend,
            fault_policy=FaultPolicy(max_retries=3),
            chaos=ChaosMonkey(seed=seed, rate=rate, kinds=("raise", "exit")),
        )

    ctxs = {b: _make_ctx(b) for b in backends}
    try:
        for item in corpus(seed, n_graphs):
            if budget is not None and time.perf_counter() - t0 > budget:
                break
            if len(report.failures) >= max_failures:
                break
            report.n_graphs += 1
            for check in active:
                if not _applicable(check, item):
                    continue
                for backend in backends:
                    this_fault = fault_fn if check.name == fault_check else None
                    detail = _evaluate(check, item, ctxs[backend], this_fault)
                    report.n_runs += 1
                    if detail is None:
                        continue
                    failure = Failure(
                        check=check.name,
                        backend=backend,
                        graph_name=item.name,
                        detail=detail,
                        n_vertices=item.n,
                        edges=item.edges,
                    )
                    if shrink_failures:
                        ctx = ctxs[backend]
                        failure.minimal = shrink(
                            item,
                            lambda cand: _evaluate(
                                check, cand, ctx, this_fault
                            ) is not None,
                        )
                    if artifact_dir is not None:
                        failure.artifact = _write_artifact(
                            failure, Path(artifact_dir)
                        )
                    report.failures.append(failure)
                    if len(report.failures) >= max_failures:
                        break
                if len(report.failures) >= max_failures:
                    break
    finally:
        for ctx in ctxs.values():
            report.faults_injected += ctx.pool.faults_injected
            ctx.close()
    report.elapsed_seconds = time.perf_counter() - t0
    return report
