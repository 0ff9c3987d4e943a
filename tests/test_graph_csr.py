"""Unit tests for the CSR graph representation and builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphStructureError
from repro.graph import (
    Graph,
    from_edge_array,
    from_edge_list,
    induced_subgraph,
    compress_vertices,
)
from repro.graph.csr import EdgeSubsetView

from tests.conftest import random_gnm


class TestConstruction:
    def test_basic_sizes(self, triangle_plus_tail):
        g = triangle_plus_tail
        assert g.n_vertices == 4
        assert g.n_edges == 4
        assert g.n_arcs == 8
        assert not g.directed
        assert not g.is_weighted

    def test_neighbors_sorted_views(self, triangle_plus_tail):
        g = triangle_plus_tail
        assert g.neighbors(2).tolist() == [0, 1, 3]
        assert g.neighbors(3).tolist() == [2]
        # neighbors() returns a view, not a copy
        assert g.neighbors(2).base is g.targets

    def test_degrees(self, triangle_plus_tail):
        assert triangle_plus_tail.degrees().tolist() == [2, 2, 3, 1]
        assert triangle_plus_tail.degree(2) == 3

    def test_has_edge(self, triangle_plus_tail):
        g = triangle_plus_tail
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 3)

    def test_self_loops_dropped(self):
        g = from_edge_list([(0, 0), (0, 1), (1, 1)])
        assert g.n_edges == 1

    def test_duplicate_edges_deduped(self):
        g = from_edge_list([(0, 1), (1, 0), (0, 1)])
        assert g.n_edges == 1
        assert g.n_arcs == 2

    def test_directed_dedupe_keeps_antiparallel(self):
        g = from_edge_list([(0, 1), (1, 0)], directed=True)
        assert g.n_edges == 2

    def test_empty_graph(self):
        g = from_edge_list([], n_vertices=5)
        assert g.n_vertices == 5
        assert g.n_edges == 0
        assert g.neighbors(4).shape[0] == 0

    def test_zero_vertex_graph(self):
        g = from_edge_list([], n_vertices=0)
        assert g.n_vertices == 0

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphStructureError):
            from_edge_array(2, np.asarray([0]), np.asarray([5]))

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphStructureError):
            from_edge_array(3, np.asarray([-1]), np.asarray([1]))

    def test_vertex_bounds_checked(self, triangle_plus_tail):
        with pytest.raises(GraphStructureError):
            triangle_plus_tail.neighbors(4)
        with pytest.raises(GraphStructureError):
            triangle_plus_tail.degree(-1)

    def test_mismatched_weights_rejected(self):
        with pytest.raises(GraphStructureError):
            from_edge_array(
                3,
                np.asarray([0, 1]),
                np.asarray([1, 2]),
                weights=np.asarray([1.0]),
            )


class TestEdgeIds:
    def test_arc_edge_ids_pair_up(self, triangle_plus_tail):
        g = triangle_plus_tail
        eids = g.arc_edge_ids
        # every edge id appears on exactly two arcs
        _, counts = np.unique(eids, return_counts=True)
        assert (counts == 2).all()

    def test_edge_endpoints_canonical(self, triangle_plus_tail):
        u, v = triangle_plus_tail.edge_endpoints()
        assert (u <= v).all()
        pairs = set(zip(u.tolist(), v.tolist()))
        assert pairs == {(0, 1), (0, 2), (1, 2), (2, 3)}

    def test_edge_endpoints_consistent_with_arcs(self):
        g = random_gnm(40, 120, seed=7)
        u, v = g.edge_endpoints()
        for eid in range(g.n_edges):
            assert g.has_edge(int(u[eid]), int(v[eid]))

    def test_directed_edge_ids_are_arcs(self):
        g = from_edge_list([(0, 1), (1, 2)], directed=True)
        assert g.arc_edge_ids.tolist() == [0, 1]

    def test_weights_roundtrip(self, weighted_graph):
        g = weighted_graph
        assert g.edge_weight(1, 3) == 0.5
        assert g.edge_weight(3, 1) == 0.5
        w = g.edge_weights()
        assert w.shape[0] == g.n_edges
        assert sorted(w.tolist()) == [0.5, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_edge_weight_missing_raises(self, triangle_plus_tail):
        with pytest.raises(GraphStructureError):
            triangle_plus_tail.edge_weight(0, 3)

    @pytest.mark.parametrize("directed", [False, True])
    def test_pickle_carries_the_data_not_the_caches(self, directed):
        """A pickle holds the arrays that define the graph (an undirected
        graph's ``arc_edge_ids`` among them) and no lazy cache."""
        import pickle

        g = random_gnm(40, 120, seed=7, directed=directed)
        cold = pickle.dumps(g)
        g.degrees(), g.edge_endpoints(), g.arc_edge_ids
        assert pickle.dumps(g) == cold
        back = pickle.loads(cold)
        for name in ("offsets", "targets", "arc_edge_ids"):
            assert np.array_equal(getattr(back, name), getattr(g, name)), name
        assert (back.directed, back.weights, back.n_edges) == (
            g.directed, g.weights, g.n_edges)
        assert back._degrees is back._arc_sources is back._edge_endpoints is None
        assert np.array_equal(back.edge_endpoints(), g.edge_endpoints())


class TestDerivedGraphs:
    def test_reverse_directed(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2)], directed=True)
        r = g.reverse()
        assert r.has_edge(1, 0) and r.has_edge(2, 1) and r.has_edge(2, 0)
        assert not r.has_edge(0, 1)

    def test_reverse_undirected_is_self(self, triangle_plus_tail):
        assert triangle_plus_tail.reverse() is triangle_plus_tail

    def test_as_undirected(self):
        g = from_edge_list([(0, 1), (1, 0), (1, 2)], directed=True)
        u = g.as_undirected()
        assert not u.directed
        assert u.n_edges == 2  # antiparallel pair collapses

    def test_induced_subgraph(self, two_triangles_bridge):
        sub, ids = induced_subgraph(two_triangles_bridge, [0, 1, 2])
        assert sub.n_vertices == 3
        assert sub.n_edges == 3
        assert ids.tolist() == [0, 1, 2]

    def test_induced_subgraph_relabels(self, two_triangles_bridge):
        sub, ids = induced_subgraph(two_triangles_bridge, [3, 5, 4])
        assert sub.n_vertices == 3
        assert sub.n_edges == 3  # the second triangle
        assert ids.tolist() == [3, 4, 5]

    def test_compress_vertices_merges_weights(self):
        g = from_edge_list([(0, 1, 1.0), (0, 2, 2.0), (1, 2, 4.0), (2, 3, 8.0)])
        labels = np.asarray([0, 0, 1, 1])
        c = compress_vertices(g, labels)
        assert c.n_vertices == 2
        assert c.n_edges == 1
        # 0-2 and 1-2 arcs cross the cut: weight 2 + 4 = 6
        assert c.edge_weight(0, 1) == 6.0

    def test_compress_to_single_vertex(self, triangle_plus_tail):
        c = compress_vertices(triangle_plus_tail, np.zeros(4, dtype=np.int64))
        assert c.n_vertices == 1
        assert c.n_edges == 0


class TestEdgeSubsetView:
    def test_deactivate_hides_edge(self, triangle_plus_tail):
        g = triangle_plus_tail
        view = g.view()
        u, v = g.edge_endpoints()
        eid = next(
            i for i in range(g.n_edges) if {int(u[i]), int(v[i])} == {2, 3}
        )
        view.deactivate(eid)
        assert view.n_active_edges == 3
        assert 3 not in view.active_neighbors(2).tolist()
        assert view.active_degree(3) == 0

    def test_double_delete_raises(self, triangle_plus_tail):
        view = triangle_plus_tail.view()
        view.deactivate(0)
        with pytest.raises(GraphStructureError):
            view.deactivate(0)

    def test_reactivate(self, triangle_plus_tail):
        view = triangle_plus_tail.view()
        view.deactivate(1)
        view.reactivate(1)
        assert view.n_active_edges == triangle_plus_tail.n_edges

    def test_bad_mask_length_rejected(self, triangle_plus_tail):
        with pytest.raises(GraphStructureError):
            EdgeSubsetView(triangle_plus_tail, np.ones(2, dtype=bool))

    def test_view_does_not_mutate_graph(self, triangle_plus_tail):
        view = triangle_plus_tail.view()
        view.deactivate(0)
        assert triangle_plus_tail.n_edges == 4


class TestNetworkxInterop:
    def test_roundtrip_undirected(self):
        nx = pytest.importorskip("networkx")
        from repro.graph import from_networkx, to_networkx

        g0 = nx.karate_club_graph()
        g = from_networkx(g0)
        assert g.n_vertices == g0.number_of_nodes()
        assert g.n_edges == g0.number_of_edges()
        g1 = to_networkx(g)
        assert set(map(frozenset, g1.edges())) == set(map(frozenset, g0.edges()))

    def test_roundtrip_directed(self):
        nx = pytest.importorskip("networkx")
        from repro.graph import from_networkx

        g0 = nx.gn_graph(30, seed=3)
        g = from_networkx(g0)
        assert g.directed
        assert g.n_edges == g0.number_of_edges()
