"""Tests for centrality metrics against networkx oracles."""

from __future__ import annotations

import numpy as np
import pytest

import networkx as nx

from repro.errors import GraphStructureError
from repro.graph import from_edge_list, from_networkx, to_networkx
from repro.centrality import (
    degree_centrality,
    closeness_centrality,
    betweenness_centrality,
    edge_betweenness_centrality,
    brandes,
    approximate_vertex_betweenness,
    sampled_betweenness,
)
from repro.parallel import ParallelContext

from tests.conftest import random_gnm


@pytest.fixture(scope="module")
def karate():
    gx = nx.karate_club_graph()
    plain = nx.Graph()
    plain.add_nodes_from(range(gx.number_of_nodes()))
    plain.add_edges_from(gx.edges())
    return from_networkx(plain)


class TestDegreeCentrality:
    def test_normalized_matches_networkx(self, karate):
        ref = nx.degree_centrality(nx.karate_club_graph())
        mine = degree_centrality(karate)
        for v, x in ref.items():
            assert mine[v] == pytest.approx(x)

    def test_unnormalized_is_degree(self, karate):
        assert np.array_equal(
            degree_centrality(karate, normalized=False), karate.degrees()
        )

    def test_edge_mask(self, triangle_plus_tail):
        view = triangle_plus_tail.view()
        u, v = triangle_plus_tail.edge_endpoints()
        eid = next(
            i
            for i in range(triangle_plus_tail.n_edges)
            if {int(u[i]), int(v[i])} == {2, 3}
        )
        view.deactivate(eid)
        deg = degree_centrality(view, normalized=False)
        assert deg[3] == 0
        assert deg[2] == 2


class TestCloseness:
    def test_matches_networkx_connected(self, karate):
        ref = nx.closeness_centrality(nx.karate_club_graph())
        mine = closeness_centrality(karate)
        for v, x in ref.items():
            assert mine[v] == pytest.approx(x)

    def test_matches_networkx_disconnected(self, disconnected_graph):
        gx = to_networkx(disconnected_graph)
        ref = nx.closeness_centrality(gx)
        mine = closeness_centrality(disconnected_graph)
        for v, x in ref.items():
            assert mine[v] == pytest.approx(x)

    def test_weighted(self, weighted_graph):
        gx = to_networkx(weighted_graph)
        ref = nx.closeness_centrality(gx, distance="weight")
        mine = closeness_centrality(weighted_graph)
        for v, x in ref.items():
            assert mine[v] == pytest.approx(x)

    def test_unit_weights_are_hops(self, monkeypatch):
        """All-ones weights answer from BFS, bit for bit: Dijkstra is
        never called (integer distance sums are exact in float64)."""
        import sys

        from repro.generators.rmat import rmat
        from repro.graph.csr import Graph
        from repro.qa.differential import corpus

        def no_dijkstra(*args, **kwargs):
            raise AssertionError("unit weights took the Dijkstra branch")

        monkeypatch.setattr(
            sys.modules["repro.centrality.closeness"], "dijkstra", no_dijkstra
        )
        bare = rmat(10, 8.0, rng=np.random.default_rng(4))
        graphs = [Graph(bare.offsets, bare.targets, directed=False,
                        weights=np.ones(bare.n_arcs),
                        arc_edge_ids=bare.arc_edge_ids)]
        graphs += [c.csr() for c in corpus(0)
                   if c.name.startswith("rand_unit_weighted") and c.edges]
        for g in graphs:
            assert g.is_weighted and np.all(g.weights == 1.0)
            hops = Graph(g.offsets, g.targets, directed=False,
                         arc_edge_ids=g.arc_edge_ids, n_edges=g.n_edges)
            assert np.array_equal(closeness_centrality(g),
                                  closeness_centrality(hops))

    def test_isolated_vertex_zero(self):
        g = from_edge_list([(0, 1)], n_vertices=3)
        assert closeness_centrality(g)[2] == 0.0

    def test_directed_matches_networkx(self):
        gx = nx.gn_graph(25, seed=5)
        from repro.graph import from_networkx

        g = from_networkx(gx)
        ref = nx.closeness_centrality(gx)
        mine = closeness_centrality(g)
        for v, x in ref.items():
            assert mine[v] == pytest.approx(x)

    @pytest.mark.parametrize("weight", [None, 2.0])
    def test_directed_view_honours_the_mask(self, weight):
        """Deactivating 0→3 on a view scores as the graph rebuilt
        without it, in the BFS branch and the Dijkstra branch."""
        arcs = [(0, 1), (1, 2), (2, 3), (0, 3)]
        rows = [a if weight is None else (*a, weight) for a in arcs]
        g = from_edge_list(rows, directed=True)
        u, v = g.edge_endpoints()
        view = g.view()
        view.deactivate(int(np.flatnonzero((u == 0) & (v == 3))[0]))
        rebuilt = from_edge_list(rows[:3], n_vertices=4, directed=True)
        got = closeness_centrality(view)
        assert got[3] == pytest.approx(0.5 if weight is None else 0.25)
        assert np.allclose(got, closeness_centrality(rebuilt))

    def test_sources_subset(self, karate):
        full = closeness_centrality(karate)
        some = closeness_centrality(karate, sources=[0, 5])
        assert some[0] == pytest.approx(full[0])
        assert some[5] == pytest.approx(full[5])
        assert some[1] == 0.0


class TestBetweenness:
    def test_vertex_matches_networkx(self, karate):
        ref = nx.betweenness_centrality(nx.karate_club_graph(), normalized=False)
        mine = betweenness_centrality(karate)
        for v, x in ref.items():
            assert mine[v] == pytest.approx(x)

    def test_vertex_normalized_matches(self, karate):
        ref = nx.betweenness_centrality(nx.karate_club_graph(), normalized=True)
        mine = betweenness_centrality(karate, normalized=True)
        for v, x in ref.items():
            assert mine[v] == pytest.approx(x)

    def test_edge_matches_networkx(self, karate):
        ref = nx.edge_betweenness_centrality(
            nx.karate_club_graph(), normalized=False
        )
        mine = edge_betweenness_centrality(karate)
        u, v = karate.edge_endpoints()
        for eid in range(karate.n_edges):
            key = (int(u[eid]), int(v[eid]))
            expect = ref.get(key, ref.get((key[1], key[0])))
            assert mine[eid] == pytest.approx(expect)

    def test_random_graph_matches(self):
        g = random_gnm(50, 120, seed=19)
        gx = to_networkx(g)
        ref = nx.betweenness_centrality(gx, normalized=False)
        mine = betweenness_centrality(g)
        for v, x in ref.items():
            assert mine[v] == pytest.approx(x)

    def test_coarse_equals_fine(self, karate):
        fine = brandes(karate, granularity="fine")
        coarse = brandes(karate, granularity="coarse")
        assert np.allclose(fine.vertex, coarse.vertex)
        assert np.allclose(fine.edge, coarse.edge)

    def test_coarse_scales_better_in_model(self, karate):
        ctx_f = ParallelContext(16)
        brandes(karate, granularity="fine", ctx=ctx_f)
        ctx_c = ParallelContext(16)
        brandes(karate, granularity="coarse", ctx=ctx_c)
        assert ctx_c.cost.speedup(16) >= ctx_f.cost.speedup(16)

    def test_path_graph_analytic(self):
        # path 0-1-2-3: BC(1) = BC(2) = 2 (pairs (0,2),(0,3) / (1,3),(0,3))
        g = from_edge_list([(0, 1), (1, 2), (2, 3)])
        bc = betweenness_centrality(g)
        assert bc.tolist() == [0.0, 2.0, 2.0, 0.0]

    def test_star_graph_analytic(self):
        g = from_edge_list([(0, i) for i in range(1, 6)])
        bc = betweenness_centrality(g)
        assert bc[0] == pytest.approx(10.0)  # C(5,2) pairs
        assert np.allclose(bc[1:], 0.0)

    def test_edge_mask_changes_scores(self, two_triangles_bridge):
        g = two_triangles_bridge
        full = edge_betweenness_centrality(g)
        view = g.view()
        u, v = g.edge_endpoints()
        eid01 = next(
            i for i in range(g.n_edges) if {int(u[i]), int(v[i])} == {0, 1}
        )
        view.deactivate(eid01)
        masked = edge_betweenness_centrality(view)
        assert masked[eid01] == 0.0
        assert not np.allclose(full, masked)

    def test_sources_subset_partial_sums(self, karate):
        all_src = brandes(karate).vertex
        half1 = brandes(karate, sources=range(0, 17)).vertex
        half2 = brandes(karate, sources=range(17, 34)).vertex
        assert np.allclose(all_src, half1 + half2)

    def test_directed_rejected(self):
        g = from_edge_list([(0, 1)], directed=True)
        with pytest.raises(GraphStructureError):
            betweenness_centrality(g)

    def test_bad_granularity(self, karate):
        with pytest.raises(ValueError):
            brandes(karate, granularity="medium")


class TestWeightedBetweenness:
    def _weighted(self, seed=3):
        from repro.graph import from_edge_array

        g = random_gnm(40, 120, seed=seed)
        rng = np.random.default_rng(seed)
        u, v = g.edge_endpoints()
        w = rng.uniform(0.5, 3.0, g.n_edges)
        return from_edge_array(40, u, v, weights=w, directed=False, dedupe=False)

    def test_vertex_matches_networkx(self):
        g = self._weighted()
        ref = nx.betweenness_centrality(
            to_networkx(g), normalized=False, weight="weight"
        )
        mine = brandes(g).vertex
        for v, x in ref.items():
            assert mine[v] == pytest.approx(x)

    def test_edge_matches_networkx(self):
        g = self._weighted(seed=7)
        ref = nx.edge_betweenness_centrality(
            to_networkx(g), normalized=False, weight="weight"
        )
        mine = brandes(g).edge
        u, v = g.edge_endpoints()
        for e in range(g.n_edges):
            key = (int(u[e]), int(v[e]))
            expect = ref.get(key, ref.get((key[1], key[0])))
            assert mine[e] == pytest.approx(expect)

    def test_force_hop_metric(self):
        g = self._weighted()
        hops = brandes(g, weights="hops").vertex
        ref = nx.betweenness_centrality(to_networkx(g), normalized=False)
        for v, x in ref.items():
            assert hops[v] == pytest.approx(x)

    def test_unit_weights_dispatch_to_bfs(self):
        from repro.graph import from_edge_array

        g0 = random_gnm(30, 70, seed=9)
        u, v = g0.edge_endpoints()
        g1 = from_edge_array(
            30, u, v, weights=np.ones(g0.n_edges), directed=False, dedupe=False
        )
        assert np.allclose(brandes(g0).vertex, brandes(g1).vertex)

    def test_bad_weights_arg(self, karate):
        with pytest.raises(ValueError):
            brandes(karate, weights="furlongs")


class TestApproximateBetweenness:
    def test_full_sampling_is_exact(self, karate):
        vbc, ebc = sampled_betweenness(karate, sample_fraction=1.0)
        assert np.allclose(vbc, betweenness_centrality(karate))
        assert np.allclose(ebc, edge_betweenness_centrality(karate))

    def test_sampling_ranks_top_edge_well(self):
        g = random_gnm(120, 360, seed=29)
        exact = edge_betweenness_centrality(g)
        _, approx = sampled_betweenness(
            g, sample_fraction=0.25, rng=np.random.default_rng(1)
        )
        # paper's claim: top-centrality entities are estimated well —
        # the approximate top edge must be in the exact top 5%.
        top = int(np.argmax(approx))
        cutoff = np.quantile(exact, 0.95)
        assert exact[top] >= cutoff

    def test_adaptive_stops_early_on_hub(self):
        g = from_edge_list([(0, i) for i in range(1, 40)])
        res = approximate_vertex_betweenness(g, 0, c=2.0)
        assert res.stopped_early
        assert res.n_samples < 40
        exact = betweenness_centrality(g)[0]
        assert res.estimate == pytest.approx(exact, rel=0.35)

    def test_adaptive_peripheral_vertex_exhausts(self):
        g = from_edge_list([(0, i) for i in range(1, 10)])
        res = approximate_vertex_betweenness(g, 3, c=5.0)
        assert not res.stopped_early
        assert res.estimate == pytest.approx(0.0)

    def test_invalid_params(self, karate):
        with pytest.raises(ValueError):
            sampled_betweenness(karate, sample_fraction=0.0)
        with pytest.raises(ValueError):
            approximate_vertex_betweenness(karate, 0, c=0.0)
        with pytest.raises(GraphStructureError):
            approximate_vertex_betweenness(karate, 99)
