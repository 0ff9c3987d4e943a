"""Differential correctness harness: smoke run, self-test, CLI front-end.

Tier-1 runs the 56-graph corpus (one CSR build per graph, every check on
the serial and thread backends) plus the fault-injection self-test (an
intentionally corrupted kernel output must be caught and shrunk to a
tiny reproducer).  The mutable structures (dynamic arrays, hybrid
array↔treap adjacency, per-vertex treaps) are checked once here to
rebuild the corpus CSR's arrays, so the kernels are fuzzed on that CSR
alone.  The full matrix — three seeds on all three backends — is behind
the ``fuzz_full`` marker: ``pytest -m fuzz_full tests/test_differential.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.datasets.karate import karate_club
from repro.graph import builder
from repro.graph.dynamic import DynamicGraph
from repro.graph.hybrid import HybridAdjacency
from repro.graph.treap import Treap
from repro.qa import (
    FAULTS,
    CorpusGraph,
    assert_valid,
    corpus,
    run_differential,
    shrink,
)


# ---------------------------------------------------------------------------
# Corpus, and the mutable structures that converge to its CSR
# ---------------------------------------------------------------------------
def test_corpus_is_deterministic():
    a = corpus(3, 30)
    b = corpus(3, 30)
    assert a == b
    assert len(a) == 30
    names = [g.name for g in a]
    assert len(set(names)) == len(names)


def test_corpus_covers_pathological_shapes():
    names = {g.name for g in corpus(0)}
    for required in ("empty_0", "isolated_5", "self_loop_heavy",
                     "multi_component", "tie_weights", "karate"):
        assert required in names


def _from_adjacency(item, neighbors):
    """CSR rebuilt from a topology-only adjacency, reattaching the
    canonical weights unless every one is 1."""
    wmap = {(u, v): w for u, v, w in item.ref().edges}
    pairs = [(u, int(v)) for u in range(item.n) for v in neighbors(u) if u < v]
    src = np.asarray([u for u, _ in pairs], dtype=np.int64)
    dst = np.asarray([v for _, v in pairs], dtype=np.int64)
    return builder.from_edge_array(
        item.n, src, dst,
        weights=(None if item.csr().has_unit_weights
                 else np.asarray([wmap[p] for p in pairs])),
        dedupe=False,
    )


def _build_dynamic(item, edges, rng):
    dyn = DynamicGraph(item.n, sorted_adjacency=rng.random() < 0.5)
    for u, v, w in edges:
        dyn.add_edge(u, v, w)
        assert_valid(dyn)
    return dyn.to_csr()


def _build_hybrid(item, edges, rng):
    # A tiny threshold forces array->treap promotion on small graphs.
    hyb = HybridAdjacency(item.n, degree_threshold=rng.choice((2, 3, 4)))
    for u, v, _ in edges:
        hyb.add_edge(u, v)
        assert_valid(hyb)
    return _from_adjacency(item, hyb.neighbors)


def _build_treap(item, edges, rng):
    slots = [Treap(seed=rng.randrange(1 << 30)) for _ in range(item.n)]
    for u, v, w in edges:
        slots[u].insert(v, w)
        slots[v].insert(u, w)
        assert_valid(slots[u])
        assert_valid(slots[v])
    return _from_adjacency(item, lambda u: slots[u].keys_array())


def _same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _canonical_arc_edge_ids(g):
    """``arc_edge_ids`` with edges renumbered in ``(u, v)`` order.  A
    corpus CSR numbers edges by first occurrence in its input; the
    mutable structures number them in ``(u, v)`` order."""
    u, v = g.edge_endpoints()
    rank = np.empty_like(g.arc_edge_ids)
    rank[np.lexsort((v, u))] = np.arange(g.n_edges, dtype=rank.dtype)
    return rank[g.arc_edge_ids]


@pytest.mark.parametrize("build", [_build_dynamic, _build_hybrid, _build_treap],
                         ids=["dynamic", "hybrid", "treap"])
def test_every_representation_converges_to_same_csr(build):
    """Each mutable structure, filled by shuffled insertion, rebuilds the
    corpus CSR's arc arrays byte for byte (edge ids up to their ``(u, v)``
    renumbering) — the premise of fuzzing the CSR alone."""
    rng = random.Random(1)
    for item in corpus(1, 20):
        edges = sorted(item.ref().edges)
        rng.shuffle(edges)
        g = build(item, edges, rng)
        assert_valid(g)
        want = item.csr()
        assert g.n_vertices == want.n_vertices
        assert _same_bytes(g.offsets, want.offsets), item.name
        assert _same_bytes(g.targets, want.targets), item.name
        assert _same_bytes(g.arc_edge_ids, _canonical_arc_edge_ids(want)), item.name
        if want.has_unit_weights:
            assert g.weights is None, item.name
        else:
            assert _same_bytes(g.weights, want.weights), item.name


# ---------------------------------------------------------------------------
# The differential run itself
# ---------------------------------------------------------------------------
def test_smoke_corpus_agrees_with_oracles():
    report = run_differential(
        0, n_graphs=56, backends=("serial", "thread"), artifact_dir=None,
    )
    assert report.ok, report.summary()
    assert report.n_graphs == 56
    assert report.n_runs >= 2000


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_differential(0, n_graphs=1, checks=("nope",), artifact_dir=None)


def test_budget_stops_corpus_early():
    report = run_differential(0, n_graphs=56, budget=0.0, artifact_dir=None,
                              backends=("serial",))
    assert report.n_graphs == 0
    assert report.ok


# ---------------------------------------------------------------------------
# Fault-injection self-test: a planted bug must be caught AND shrunk
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_is_caught_and_shrunk(fault, tmp_path):
    check_name, _ = FAULTS[fault]
    report = run_differential(
        0, n_graphs=14, backends=("serial",),
        checks=(check_name,), fault=fault, artifact_dir=tmp_path,
        max_failures=1,
    )
    assert not report.ok
    failure = report.failures[0]
    assert failure.check == check_name
    # Acceptance: the shrinker reduces a planted fault to a tiny graph.
    assert failure.minimal is not None
    assert failure.minimal.n <= 12
    assert failure.artifact is not None and failure.artifact.exists()
    text = failure.artifact.read_text()
    assert "# differential failure" in text
    # Every non-comment line is a parseable edge of the minimal graph.
    edges = [ln.split() for ln in text.splitlines() if not ln.startswith("#")]
    assert len(edges) == len(failure.minimal.edges)


def test_shrink_preserves_failure_predicate():
    item = CorpusGraph("t", 6, tuple((i, j) for i in range(6)
                                     for j in range(i + 1, 6)))
    # Predicate: graph still contains an edge touching vertex labelled 0.
    pred = lambda g: any(0 in e[:2] for e in g.edges)
    minimal = shrink(item, pred)
    assert pred(minimal)
    assert minimal.n <= 2
    assert len(minimal.edges) == 1


# ---------------------------------------------------------------------------
# CLI front door (the satellite smoke invocation of `repro check`)
# ---------------------------------------------------------------------------
def test_cli_check_smoke(capsys):
    rc = cli_main(["check", "--seed", "0", "--graphs", "12", "--budget", "60",
                   "--backends", "serial", "--no-artifacts"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "failures=0" in out
    assert "OK:" in out


def test_cli_check_fault_fails(tmp_path, capsys):
    rc = cli_main(["check", "--seed", "0", "--graphs", "3",
                   "--backends", "serial",
                   "--checks", "bfs", "--fault", "bfs_plus_one",
                   "--artifacts", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL bfs" in out
    assert "reproducer:" in out
    assert list(tmp_path.glob("*.edgelist"))


def test_cli_check_unknown_fault(capsys):
    rc = cli_main(["check", "--fault", "not_a_fault", "--no-artifacts"])
    assert rc == 2
    assert "unknown fault" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Oracle spot checks against independently known values
# ---------------------------------------------------------------------------
def test_oracles_match_known_karate_facts():
    from repro.qa import oracles

    g = karate_club()
    u, v = g.edge_endpoints()
    ref = oracles.RefGraph(34, list(zip(u.tolist(), v.tolist())))
    assert ref.m == 78
    cc = oracles.connected_components(ref)
    assert set(cc) == {0}
    bc, _ = oracles.brandes_betweenness(ref)
    # Vertex 0 (the instructor) has the famous top betweenness 231.07...
    assert max(range(34), key=lambda i: bc[i]) == 0
    assert bc[0] == pytest.approx(231.0714285714286)
    levels = oracles.bfs_levels(ref, 0)
    assert max(levels) == 3  # karate has eccentricity 3 from vertex 0


# ---------------------------------------------------------------------------
# Full matrix (slow): the acceptance-criteria run
# ---------------------------------------------------------------------------
@pytest.mark.fuzz_full
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_matrix_all_backends(seed, tmp_path):
    report = run_differential(seed, n_graphs=56, artifact_dir=tmp_path)
    assert report.ok, report.summary()
    assert report.n_graphs == 56
    assert report.n_runs >= 3000
