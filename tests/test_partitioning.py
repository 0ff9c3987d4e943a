"""Tests for the partitioning substrate: metrics, FM/k-way refinement,
multilevel (pmetis/kmetis-like) and spectral (Chaco-like) partitioners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConvergenceError, PartitioningError
from repro.generators import grid_graph, gnm_random, rmat, road_network
from repro.graph import from_edge_list
from repro.partitioning import (
    edge_cut,
    partition_balance,
    partition_sizes,
    conductance,
    validate_partition,
    fm_refine_bisection,
    kway_refine,
    multilevel_recursive_bisection,
    multilevel_kway,
    spectral_bisection,
    spectral_kway,
    fiedler_vector,
)


class TestMetrics:
    def test_edge_cut_simple(self, two_triangles_bridge):
        parts = np.asarray([0, 0, 0, 1, 1, 1])
        assert edge_cut(two_triangles_bridge, parts) == 1.0

    def test_edge_cut_weighted(self, weighted_graph):
        parts = np.asarray([0, 0, 1, 1])
        # edges crossing {0,1}/{2,3}: (1,2)=2, (3,0)=4, (0,2)=5, (1,3)=0.5
        assert edge_cut(weighted_graph, parts) == pytest.approx(11.5)

    def test_balance_perfect(self, two_triangles_bridge):
        parts = np.asarray([0, 0, 0, 1, 1, 1])
        assert partition_balance(two_triangles_bridge, parts) == pytest.approx(1.0)

    def test_balance_skewed(self, two_triangles_bridge):
        parts = np.asarray([0, 1, 1, 1, 1, 1])
        assert partition_balance(two_triangles_bridge, parts) == pytest.approx(
            5 / 3
        )

    def test_sizes(self, two_triangles_bridge):
        parts = np.asarray([0, 0, 1, 1, 2, 2])
        assert partition_sizes(two_triangles_bridge, parts).tolist() == [2, 2, 2]

    def test_conductance_bridge_cut(self, two_triangles_bridge):
        mask = np.asarray([True, True, True, False, False, False])
        # cut=1, vol each side = 7
        assert conductance(two_triangles_bridge, mask) == pytest.approx(1 / 7)

    def test_validate_rejects_bad(self, two_triangles_bridge):
        with pytest.raises(PartitioningError):
            validate_partition(two_triangles_bridge, np.zeros(3))
        with pytest.raises(PartitioningError):
            validate_partition(two_triangles_bridge, np.full(6, -1))
        with pytest.raises(PartitioningError):
            validate_partition(two_triangles_bridge, np.full(6, 9), k=2)


class TestRefinement:
    def test_fm_improves_bad_bisection(self):
        g = grid_graph(8, 8)
        rng = np.random.default_rng(0)
        side = rng.random(64) < 0.5  # random split
        before = edge_cut(g, side.astype(np.int64))
        refined = fm_refine_bisection(g, side)
        after = edge_cut(g, refined.astype(np.int64))
        assert after < before

    def test_fm_respects_balance(self):
        g = gnm_random(100, 400, rng=np.random.default_rng(1))
        side = np.zeros(100, dtype=bool)
        side[:50] = True
        refined = fm_refine_bisection(g, side, max_imbalance=1.1)
        frac = refined.sum() / 100
        assert 0.4 <= frac <= 0.6

    def test_fm_keeps_optimal(self, two_triangles_bridge):
        side = np.asarray([False, False, False, True, True, True])
        refined = fm_refine_bisection(two_triangles_bridge, side)
        assert edge_cut(two_triangles_bridge, refined.astype(np.int64)) == 1.0

    def test_kway_improves(self):
        g = grid_graph(10, 10)
        rng = np.random.default_rng(2)
        parts = rng.integers(0, 4, size=100)
        before = edge_cut(g, parts)
        refined = kway_refine(g, parts, 4)
        assert edge_cut(g, refined) <= before

    def test_kway_enforces_balance(self):
        g = gnm_random(120, 500, rng=np.random.default_rng(3))
        parts = np.zeros(120, dtype=np.int64)  # everything in part 0
        refined = kway_refine(g, parts, 4, max_imbalance=1.25)
        assert partition_balance(g, refined, 4) <= 1.3


class TestMultilevel:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_recursive_bisection_valid(self, k):
        g = road_network(600, 8, rng=np.random.default_rng(4))
        parts = multilevel_recursive_bisection(g, k)
        assert validate_partition(g, parts, k) == k
        assert partition_sizes(g, parts, k).min() > 0
        assert partition_balance(g, parts, k) < 1.35

    def test_kway_valid(self):
        g = road_network(600, 8, rng=np.random.default_rng(5))
        parts = multilevel_kway(g, 8)
        assert validate_partition(g, parts, 8) == 8
        assert partition_balance(g, parts, 8) < 1.2

    def test_road_cut_much_smaller_than_random(self):
        """The Table 1 phenomenon at small scale."""
        n, m = 1500, 7500
        road = road_network(n, 10, rng=np.random.default_rng(6))
        rand = gnm_random(n, m, rng=np.random.default_rng(7))
        cut_road = edge_cut(road, multilevel_recursive_bisection(road, 8))
        cut_rand = edge_cut(rand, multilevel_recursive_bisection(rand, 8))
        assert cut_rand > 5 * cut_road

    def test_grid_bisection_near_optimal(self):
        g = grid_graph(16, 16)
        parts = multilevel_recursive_bisection(g, 2)
        # optimal straight cut is 16; allow slack for heuristics
        assert edge_cut(g, parts) <= 28

    def test_k_larger_than_n_rejected(self):
        g = from_edge_list([(0, 1)])
        with pytest.raises(PartitioningError):
            multilevel_recursive_bisection(g, 5)

    def test_directed_rejected(self):
        g = from_edge_list([(0, 1)], directed=True)
        with pytest.raises(PartitioningError):
            multilevel_kway(g, 2)

    def test_k1_is_trivial(self):
        g = grid_graph(5, 5)
        parts = multilevel_recursive_bisection(g, 1)
        assert (parts == 0).all()

    def test_deterministic_with_seed(self):
        g = road_network(300, 6, rng=np.random.default_rng(8))
        a = multilevel_kway(g, 4, rng=np.random.default_rng(1))
        b = multilevel_kway(g, 4, rng=np.random.default_rng(1))
        assert np.array_equal(a, b)


class TestSpectral:
    def test_fiedler_separates_two_cliques(self):
        edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        edges += [(i, j) for i in range(8, 16) for j in range(i + 1, 16)]
        edges += [(0, 8)]
        g = from_edge_list(edges)
        f = fiedler_vector(g, method="lanczos")
        side = f > np.median(f)
        assert len(set(side[:8].tolist())) == 1
        assert len(set(side[8:].tolist())) == 1
        assert side[0] != side[8]

    def test_rqi_cut_comparable_to_lanczos(self):
        # Road graphs have many near-degenerate small eigenvalues, so the
        # two solvers may pick different (equally good) Fiedler-ish
        # vectors; compare cut *quality*, not vector identity.
        g = road_network(300, 6, rng=np.random.default_rng(9))
        cut_l = edge_cut(
            g, spectral_bisection(g, method="lanczos").astype(np.int64)
        )
        cut_r = edge_cut(
            g, spectral_bisection(g, method="rqi").astype(np.int64)
        )
        assert cut_r <= 3 * cut_l + 10

    def test_bisection_valid_on_road(self):
        g = road_network(400, 8, rng=np.random.default_rng(10))
        side = spectral_bisection(g, method="lanczos")
        assert 0.3 <= side.mean() <= 0.7

    def test_kway_on_road(self):
        g = road_network(400, 8, rng=np.random.default_rng(11))
        parts = spectral_kway(g, 4, method="lanczos")
        assert validate_partition(g, parts, 4) == 4
        assert partition_sizes(g, parts, 4).min() > 0

    def test_rqi_fails_on_small_world(self):
        """Table 1: Chaco-RQI fails to complete on the small-world
        instance (eigenvector localization on hubs)."""
        g = rmat(11, 5.0, rng=np.random.default_rng(12))
        with pytest.raises((ConvergenceError, PartitioningError)):
            spectral_kway(g, 8, method="rqi")

    def test_tiny_graph_rejected(self):
        g = from_edge_list([(0, 1)])
        with pytest.raises(PartitioningError):
            fiedler_vector(g)

    def test_unknown_method(self):
        g = road_network(100, 4)
        with pytest.raises(ValueError):
            fiedler_vector(g, method="voodoo")


class TestKwayDirtySetRegression:
    """The dirty-set fast path must produce *identical* partitions to
    the original exhaustive boundary re-scan (kept as
    ``repro.qa.oracles.kway_refine_rescan``)."""

    @pytest.mark.parametrize("seed,k", [(0, 2), (1, 3), (2, 4), (3, 7)])
    def test_identical_to_reference_rmat(self, seed, k):
        from repro.partitioning.refine import kway_refine
        from repro.qa.oracles import kway_refine_rescan

        g = rmat(9, 6.0, rng=np.random.default_rng(seed))
        parts0 = np.random.default_rng(seed + 100).integers(
            0, k, g.n_vertices
        ).astype(np.int64)
        fast = kway_refine(g, parts0, k)
        ref = kway_refine_rescan(g, parts0, k)
        np.testing.assert_array_equal(fast, ref)

    def test_identical_to_reference_weighted(self):
        from repro.partitioning.refine import kway_refine
        from repro.qa.oracles import kway_refine_rescan

        from repro.graph import from_edge_array

        rng = np.random.default_rng(11)
        base = gnm_random(200, 700, rng=rng)
        u, v = base.edge_endpoints()
        g = from_edge_array(
            200, u, v, weights=rng.random(u.shape[0]) + 0.1, directed=False
        )
        vw = rng.random(g.n_vertices) + 0.5
        parts0 = rng.integers(0, 4, g.n_vertices).astype(np.int64)
        fast = kway_refine(g, parts0, 4, vertex_weights=vw)
        ref = kway_refine_rescan(g, parts0, 4, vertex_weights=vw)
        np.testing.assert_array_equal(fast, ref)


def test_fm_long_improving_run_is_linear_in_moves():
    """One FM pass over an alternating-sides path makes 30 000
    *successive improving* moves (every odd vertex, each cutting two
    edges).  Remembering the best prefix by copying the move list on
    every improvement made that pass quadratic (4+ s here); it is a
    length now."""
    import time

    from repro.graph import from_edge_array
    from repro.partitioning.refine import fm_refine_bisection

    n = 60_001
    g = from_edge_array(n, np.arange(n - 1), np.arange(1, n))
    side = (np.arange(n) % 2).astype(bool)
    t0 = time.perf_counter()
    out = fm_refine_bisection(g, side, max_imbalance=2.0)
    elapsed = time.perf_counter() - t0
    # identical to the result before the rewrite: the whole path on the
    # even vertices' side, cut 0
    assert not out.any()
    assert elapsed < 3.0, f"fm_refine_bisection took {elapsed:.2f}s"
