"""Tests for modularity, dendrograms, and the five clustering algorithms."""

from __future__ import annotations

import numpy as np
import pytest

import networkx as nx

from repro.community import (
    modularity,
    ModularityTracker,
    labels_to_communities,
    Dendrogram,
    cnm,
    local_resweep,
    pma,
    pla,
    girvan_newman,
    pbd,
    BEST_KNOWN_MODULARITY,
    PAPER_TABLE2,
)
from repro.community.buckets import MultiLevelBucket
from repro.datasets import karate_club, KARATE_GROUND_TRUTH
from repro.errors import ClusteringError, GraphStructureError
from repro.generators import planted_partition
from repro.graph import from_edge_list, to_networkx

from tests.conftest import random_gnm


@pytest.fixture(scope="module")
def karate():
    return karate_club()


class TestModularity:
    def test_matches_networkx(self, karate):
        labels = KARATE_GROUND_TRUTH
        comms = [set(np.nonzero(labels == c)[0].tolist()) for c in (0, 1)]
        ref = nx.algorithms.community.modularity(to_networkx(karate), comms)
        assert modularity(karate, labels) == pytest.approx(ref)

    def test_singletons(self, karate):
        q = modularity(karate, np.arange(34))
        # all-singleton partition: q = -Σ (deg/2m)² < 0
        assert q < 0

    def test_one_cluster_zero(self, karate):
        assert modularity(karate, np.zeros(34)) == pytest.approx(0.0)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        g = random_gnm(60, 150, seed=3)
        for _ in range(10):
            labels = rng.integers(0, 6, size=60)
            q = modularity(g, labels)
            assert -0.5 <= q < 1.0

    def test_arbitrary_label_values(self, karate):
        labels = KARATE_GROUND_TRUTH * 1000 + 7
        assert modularity(karate, labels) == pytest.approx(
            modularity(karate, KARATE_GROUND_TRUTH)
        )

    def test_length_mismatch(self, karate):
        with pytest.raises(ClusteringError):
            modularity(karate, np.zeros(3))

    def test_empty_graph(self):
        g = from_edge_list([], n_vertices=4)
        assert modularity(g, np.zeros(4)) == 0.0

    def test_labels_to_communities(self):
        labels = np.asarray([5, 2, 5, 2, 9])
        comms = labels_to_communities(labels)
        assert [c.tolist() for c in comms] == [[1, 3], [0, 2], [4]]


class TestModularityTracker:
    def test_initial_matches(self, karate):
        t = ModularityTracker(karate)
        assert t.modularity() == pytest.approx(0.0)
        t.check()

    def test_split_matches_recompute(self, karate):
        t = ModularityTracker(karate)
        part_b = np.nonzero(KARATE_GROUND_TRUTH == 1)[0]
        part_a = np.nonzero(KARATE_GROUND_TRUTH == 0)[0]
        t.split(part_a, part_b)
        t.check()
        assert t.modularity() == pytest.approx(
            modularity(karate, KARATE_GROUND_TRUTH)
        )
        assert t.n_clusters == 2

    def test_chained_splits(self):
        g = random_gnm(40, 80, seed=9)
        t = ModularityTracker(g)
        rng = np.random.default_rng(2)
        members = np.arange(40)
        for _ in range(5):
            lab = t.labels[int(rng.integers(0, 40))]
            cluster = np.nonzero(t.labels == lab)[0]
            if cluster.shape[0] < 2:
                continue
            cut = rng.integers(1, cluster.shape[0])
            t.split(cluster[:cut], cluster[cut:])
            t.check()

    def test_invalid_split_rejected(self, karate):
        t = ModularityTracker(karate)
        with pytest.raises(ClusteringError):
            t.split(np.asarray([0]), np.asarray([], dtype=np.int64))
        t.split(np.arange(17), np.arange(17, 34))
        with pytest.raises(ClusteringError):
            # 0 and 33 are now in different clusters
            t.split(np.asarray([0]), np.asarray([33]))


class TestDendrogram:
    def test_replay(self):
        d = Dendrogram(4, initial_score=-0.5)
        d.record(0, 1, 0.1)
        d.record(2, 3, 0.3)
        d.record(0, 2, 0.2)
        assert d.best_step() == 2
        labels = d.labels_at(2)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert d.labels_at(3).tolist() == [0, 0, 0, 0]

    def test_no_merge_better_than_initial(self):
        d = Dendrogram(3, initial_score=0.5)
        d.record(0, 1, 0.1)
        assert d.best_step() == 0
        assert d.labels_at(0).tolist() == [0, 1, 2]

    def test_step_bounds(self):
        d = Dendrogram(3)
        with pytest.raises(ClusteringError):
            d.labels_at(1)


class TestMultiLevelBucket:
    def test_insert_max(self):
        b = MultiLevelBucket()
        b.insert("a", 0.3)
        b.insert("b", 0.7)
        b.insert("c", -0.2)
        assert b.max() == ("b", 0.7)
        b.check_invariants()

    def test_update_moves_key(self):
        b = MultiLevelBucket()
        b.insert(1, 0.9)
        b.insert(2, 0.1)
        b.insert(1, -0.5)  # update
        assert b.max() == (2, 0.1)
        b.check_invariants()

    def test_remove(self):
        b = MultiLevelBucket()
        b.insert(1, 0.9)
        b.insert(2, 0.5)
        b.remove(1)
        assert b.max() == (2, 0.5)
        assert 1 not in b
        b.check_invariants()

    def test_empty_max_none(self):
        assert MultiLevelBucket().max() is None

    def test_tie_break_smallest_key(self):
        b = MultiLevelBucket()
        b.insert(7, 0.4)
        b.insert(3, 0.4)
        assert b.max() == (3, 0.4)

    def test_randomized_against_reference(self):
        rng = np.random.default_rng(11)
        b = MultiLevelBucket()
        ref: dict[int, float] = {}
        for _ in range(500):
            op = rng.integers(0, 3)
            k = int(rng.integers(0, 30))
            if op < 2:
                v = float(rng.uniform(-0.99, 0.99))
                b.insert(k, v)
                ref[k] = v
            elif k in ref:
                b.remove(k)
                del ref[k]
            if ref:
                mk, mv = b.max()
                assert mv == max(ref.values())
            else:
                assert b.max() is None
        b.check_invariants()

    def test_bad_params(self):
        with pytest.raises(ValueError):
            MultiLevelBucket(lo=1.0, hi=0.0)


class TestAgglomerative:
    def test_cnm_karate_score(self, karate):
        r = cnm(karate)
        # CNM's published karate score
        assert r.modularity == pytest.approx(0.3807, abs=1e-3)
        assert r.n_clusters == 3

    def test_pma_equals_cnm_merges(self, karate):
        a = cnm(karate).extras["dendrogram"]
        b = pma(karate).extras["dendrogram"]
        assert a.merges == b.merges
        assert np.allclose(a.scores, b.scores)

    def test_pma_equals_cnm_random_graphs(self):
        for seed in (1, 2, 3):
            g = random_gnm(50, 110, seed=seed)
            ra, rb = cnm(g), pma(g)
            assert ra.extras["dendrogram"].merges == rb.extras["dendrogram"].merges
            assert ra.modularity == pytest.approx(rb.modularity)

    def test_pma_matches_networkx_greedy_quality(self, karate):
        ref = nx.algorithms.community.greedy_modularity_communities(
            to_networkx(karate)
        )
        ref_q = nx.algorithms.community.modularity(to_networkx(karate), ref)
        assert pma(karate).modularity == pytest.approx(ref_q, abs=0.02)

    def test_pma_weighted(self):
        g = from_edge_list(
            [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 5.0), (3, 4, 5.0), (4, 5, 5.0),
             (3, 5, 5.0), (2, 3, 0.1)]
        )
        r = pma(g)
        assert r.n_clusters == 2
        assert r.labels[0] == r.labels[1] == r.labels[2]
        assert r.labels[3] == r.labels[4] == r.labels[5]

    def test_pma_disconnected(self, disconnected_graph):
        r = pma(disconnected_graph)
        assert r.labels[0] == r.labels[1] == r.labels[2]
        assert r.labels[3] == r.labels[4]
        assert r.labels[0] != r.labels[3]

    def test_edgeless_graph(self):
        g = from_edge_list([], n_vertices=5)
        r = pma(g)
        assert r.n_clusters == 5
        assert r.modularity == 0.0

    def test_empty_graph_rejected(self):
        g = from_edge_list([], n_vertices=0)
        with pytest.raises(ClusteringError):
            pma(g)

    def test_directed_rejected(self):
        g = from_edge_list([(0, 1)], directed=True)
        with pytest.raises(GraphStructureError):
            pma(g)
        with pytest.raises(GraphStructureError):
            cnm(g)


class TestDivisive:
    def test_gn_karate_score(self, karate):
        r = girvan_newman(karate)
        # the paper's Table 2 GN value for karate is 0.401
        assert r.modularity == pytest.approx(0.401, abs=5e-3)

    def test_gn_recovers_planted_partition(self):
        pp = planted_partition([20] * 4, 0.5, 0.01, rng=np.random.default_rng(7))
        r = girvan_newman(pp.graph, patience=60)
        assert r.modularity >= 0.9 * modularity(pp.graph, pp.labels)

    def test_pbd_close_to_gn(self, karate):
        gq = girvan_newman(karate).modularity
        bq = pbd(karate, sample_fraction=0.3, rng=np.random.default_rng(1)).modularity
        assert bq >= gq - 0.05

    def test_pbd_full_sampling_without_prepass_equals_gn(self, karate):
        gn_r = girvan_newman(karate)
        pbd_r = pbd(
            karate,
            sample_fraction=1.0,
            exact_threshold=0,
            bridge_prepass=False,
        )
        assert pbd_r.modularity == pytest.approx(gn_r.modularity, abs=1e-9)

    def test_pbd_recovers_planted_partition(self):
        pp = planted_partition([20] * 4, 0.5, 0.01, rng=np.random.default_rng(9))
        r = pbd(pp.graph, sample_fraction=0.2, patience=60)
        assert r.modularity >= 0.85 * modularity(pp.graph, pp.labels)

    def test_patience_limits_iterations(self, karate):
        r = girvan_newman(karate, patience=5)
        full = girvan_newman(karate)
        assert r.extras["n_deletions"] <= full.extras["n_deletions"]

    def test_max_iterations(self, karate):
        r = girvan_newman(karate, max_iterations=3)
        assert r.extras["n_deletions"] <= 3

    def test_pbd_records_scoring_calls(self, karate):
        r = pbd(karate, exact_threshold=10)
        calls = r.extras["scoring_calls"]
        assert calls["approx"] + calls["exact"] > 0

    def test_pbd_granularity_switch_engages(self, karate):
        r = pbd(karate, exact_threshold=40)  # everything exact
        assert r.extras["scoring_calls"]["approx"] == 0

    def test_invalid_params(self, karate):
        with pytest.raises(ValueError):
            pbd(karate, sample_fraction=1.5)
        with pytest.raises(ValueError):
            pbd(karate, exact_threshold=-1)

    def test_divisive_on_disconnected(self, disconnected_graph):
        r = girvan_newman(disconnected_graph)
        assert r.n_clusters >= 3


class TestPLA:
    def test_karate_reasonable(self, karate):
        r = pla(karate)
        assert r.modularity > 0.3
        assert 2 <= r.n_clusters <= 8

    def test_recovers_planted_partition(self):
        pp = planted_partition([25] * 4, 0.5, 0.01, rng=np.random.default_rng(3))
        r = pla(pp.graph, rng=np.random.default_rng(4))
        assert r.modularity >= 0.9 * modularity(pp.graph, pp.labels)

    @pytest.mark.parametrize("metric", ["weight", "degree", "clustering"])
    def test_local_metrics_all_work(self, karate, metric):
        r = pla(karate, local_metric=metric)
        assert r.modularity > 0.2
        assert r.extras["local_metric"] == metric

    def test_bridge_handling(self, two_triangles_bridge):
        r = pla(two_triangles_bridge)
        # two triangles should stay separate or merge consistently
        assert r.labels[0] == r.labels[1] == r.labels[2]
        assert r.labels[3] == r.labels[4] == r.labels[5]

    def test_no_bridge_removal(self, karate):
        r = pla(karate, remove_bridges=False)
        assert r.modularity > 0.25

    def test_modularity_nonnegative_on_connected(self, karate):
        # pLA only accepts improving merges starting from singletons,
        # so final Q >= Q(singletons); on real networks it lands > 0.
        assert pla(karate).modularity >= 0.0

    def test_invalid_params(self, karate):
        with pytest.raises(ValueError):
            pla(karate, local_metric="psychic")
        with pytest.raises(ValueError):
            pla(karate, max_passes=0)

    def test_deterministic_with_seed(self, karate):
        a = pla(karate, rng=np.random.default_rng(42))
        b = pla(karate, rng=np.random.default_rng(42))
        assert np.array_equal(a.labels, b.labels)


class TestLocalResweepLabels:
    """``labels`` is a wire parameter: checked, then renumbered densely."""

    def test_negative_label_refused(self, karate):
        labels = np.arange(34) // 5
        labels[3] = -1
        with pytest.raises(GraphStructureError, match="non-negative integers"):
            local_resweep(karate, labels=labels)

    def test_non_integral_labels_refused(self, karate):
        with pytest.raises(GraphStructureError, match="non-negative integers"):
            local_resweep(karate, labels=[0.7] * 34)

    def test_integral_float_labels_accepted(self, karate):
        labels = np.arange(34) // 5
        got = local_resweep(karate, labels=labels.astype(float).tolist())
        ref = local_resweep(karate, labels=labels)
        assert np.array_equal(got.labels, ref.labels)

    def test_huge_label_is_renumbered(self, karate):
        """``bincount`` would size a 10**13 label at 72.8 TiB."""
        labels = np.arange(34) // 5
        huge = labels.copy()
        huge[labels == 6] = 10**13
        got = local_resweep(karate, labels=huge.tolist(), touched=[0, 33])
        ref = local_resweep(karate, labels=labels, touched=[0, 33])
        assert np.array_equal(got.labels, ref.labels)
        assert got.modularity == ref.modularity

    @pytest.mark.parametrize("name", ["karate", "rmat11"])
    def test_sparse_ids_give_the_dense_result(self, karate, name):
        from repro.generators import rmat

        g = karate if name == "karate" else rmat(
            11, 8.0, rng=np.random.default_rng(3))
        n = g.n_vertices
        labels = np.arange(n) // 5
        touched = [0, 3, n - 1]
        got = local_resweep(g, labels=labels * 1000 + 7, touched=touched)
        ref = local_resweep(g, labels=labels, touched=touched)
        assert np.array_equal(got.labels, ref.labels)
        assert got.modularity == ref.modularity
        assert got.extras == ref.extras


def test_sweep_best_moves_body_parity():
    """``_best_moves`` against the scalar run-walking twin, element for element."""
    from repro.community.pla import _best_moves, _loopless_arcs, _vertex_strengths
    from repro.generators import rmat
    from repro.qa.oracles import pla_best_moves_runwalk

    for seed in (0, 7):
        g = rmat(8, 8.0, rng=np.random.default_rng(seed)).as_undirected()
        rng = np.random.default_rng(seed + 100)
        # random labels (not just singletons) exercise own-label runs
        # and merged groups; one shared label, the no-candidate -1 sentinel
        labels = rng.integers(0, g.n_vertices, size=g.n_vertices)
        labels = np.unique(labels, return_inverse=True)[1].astype(np.int64)
        sv = _vertex_strengths(g)
        src, tgt, w = _loopless_arcs(g)
        W = float(g.edge_weights().sum())
        for labs in (labels, np.zeros_like(labels)):
            S = np.bincount(labs, weights=sv, minlength=g.n_vertices)
            got = _best_moves(labs, sv, S, W, src, tgt, w)
            ref = pla_best_moves_runwalk(labs, sv, S, W, src, tgt, w)
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)


def test_sweep_best_moves_oracle_rejects_unsorted_src():
    from repro.qa.oracles import pla_best_moves_runwalk

    src = np.asarray([1, 0], dtype=np.int64)
    tgt = np.asarray([0, 1], dtype=np.int64)
    one = np.ones(2, dtype=np.float64)
    labels = np.asarray([0, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="nondecreasing"):
        pla_best_moves_runwalk(labels, one, one, 1.0, src, tgt, one)


class TestTable2Constants:
    def test_best_known_present_for_all(self):
        assert set(BEST_KNOWN_MODULARITY) == set(PAPER_TABLE2)

    def test_paper_rows_internally_consistent(self):
        for name, (n, gn_q, pbd_q, pma_q, pla_q, best) in PAPER_TABLE2.items():
            assert best >= max(gn_q, pbd_q, pma_q, pla_q) - 1e-9
            assert n > 0


class TestResultType:
    def test_summary_and_communities(self, karate):
        r = pma(karate)
        assert "pMA" in r.summary()
        comms = r.communities()
        assert sum(len(c) for c in comms) == 34
