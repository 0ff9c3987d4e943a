"""Differential correctness harness: smoke run, self-test, CLI front-end.

Tier-1 runs a budget-capped smoke corpus plus the fault-injection
self-test (an intentionally corrupted kernel output must be caught and
shrunk to a tiny reproducer).  The full matrix — big corpus, every
backend × representation combination — is behind the ``fuzz_full``
marker: ``pytest -m fuzz_full tests/test_differential.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.datasets.karate import karate_club
from repro.qa import (
    CHECKS,
    FAULTS,
    REPRESENTATIONS,
    CorpusGraph,
    corpus,
    run_differential,
    shrink,
)
from repro.qa.differential import build_representation


# ---------------------------------------------------------------------------
# Corpus and representation builders
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


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_every_representation_converges_to_same_csr(representation):
    for item in corpus(1, 20):
        if item.directed and representation != "csr":
            continue
        g = build_representation(item, representation, seed=1)
        ref = item.ref()
        assert g.n_vertices == ref.n
        assert g.n_edges == ref.m
        got = sorted(zip(*[a.tolist() for a in g.edge_endpoints()]))
        exp = sorted((u, v) for u, v, _ in ref.edges)
        assert got == exp


def test_build_representation_is_deterministic():
    item = corpus(0)[11]  # karate
    a = build_representation(item, "hybrid", seed=7)
    b = build_representation(item, "hybrid", seed=7)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.targets, b.targets)


# ---------------------------------------------------------------------------
# The differential run itself
# ---------------------------------------------------------------------------
def test_smoke_corpus_agrees_with_oracles():
    report = run_differential(
        0, n_graphs=16, budget=60.0, backends=("serial", "thread"),
        artifact_dir=None,
    )
    assert report.ok, report.summary()
    assert report.n_runs > 100
    assert report.n_graphs == 16


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
        0, n_graphs=14, backends=("serial",), representations=("csr",),
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
                   "--backends", "serial", "--representations", "csr",
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
def test_full_matrix_all_backends_all_representations(seed, tmp_path):
    report = run_differential(seed, n_graphs=56, artifact_dir=tmp_path)
    assert report.ok, report.summary()
    assert report.n_graphs == 56
    expected_cells = len(CHECKS) * len(REPRESENTATIONS)
    assert report.n_runs > expected_cells  # sanity: matrix actually ran
