"""Tests for BFS, connected components, and st-connectivity kernels."""

from __future__ import annotations

import numpy as np
import pytest

import networkx as nx

from repro.errors import GraphStructureError
from repro.graph import from_edge_list, from_networkx, to_networkx
from repro.kernels import (
    bfs,
    bfs_distances,
    connected_components,
    component_sizes,
    largest_component,
    st_connectivity,
)
from repro.parallel import ParallelContext

from tests.conftest import random_gnm


class TestBFS:
    def test_distances_small(self, triangle_plus_tail):
        res = bfs(triangle_plus_tail, 0)
        assert res.distances.tolist() == [0, 1, 1, 2]
        assert res.n_levels == 2

    def test_parents_form_tree(self, two_triangles_bridge):
        res = bfs(two_triangles_bridge, 0)
        for v in range(6):
            if v == 0:
                assert res.parents[v] == 0
            else:
                p = int(res.parents[v])
                assert res.distances[p] == res.distances[v] - 1
                assert two_triangles_bridge.has_edge(p, v)

    def test_unreached_marked(self, disconnected_graph):
        res = bfs(disconnected_graph, 0)
        assert res.distances[3] == -1
        assert res.distances[5] == -1
        assert res.n_reached == 3

    def test_max_depth(self, triangle_plus_tail):
        res = bfs(triangle_plus_tail, 0, max_depth=1)
        assert res.distances.tolist() == [0, 1, 1, -1]

    def test_source_out_of_range(self, triangle_plus_tail):
        with pytest.raises(GraphStructureError):
            bfs(triangle_plus_tail, 10)

    def test_against_networkx_random(self):
        g = random_gnm(120, 300, seed=11)
        gx = to_networkx(g)
        mine = bfs_distances(g, 0)
        ref = nx.single_source_shortest_path_length(gx, 0)
        for v in range(120):
            assert mine[v] == ref.get(v, -1)

    def test_directed_bfs(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0), (3, 0)], directed=True)
        d = bfs_distances(g, 0)
        assert d.tolist() == [0, 1, 2, -1]

    def test_edge_mask_respected(self, two_triangles_bridge):
        g = two_triangles_bridge
        view = g.view()
        u, v = g.edge_endpoints()
        bridge = next(
            i for i in range(g.n_edges) if {int(u[i]), int(v[i])} == {2, 3}
        )
        view.deactivate(bridge)
        d = bfs_distances(view, 0)
        assert (d[:3] >= 0).all()
        assert (d[3:] == -1).all()

    def test_deterministic_parents(self):
        g = random_gnm(60, 150, seed=5)
        r1 = bfs(g, 3)
        r2 = bfs(g, 3)
        assert np.array_equal(r1.parents, r2.parents)

    def test_records_phases(self, two_triangles_bridge):
        ctx = ParallelContext(4)
        bfs(two_triangles_bridge, 0, ctx=ctx)
        assert ctx.cost.parallel_work > 0
        assert ctx.cost.n_phases >= 1

    def test_single_vertex(self):
        g = from_edge_list([], n_vertices=1)
        res = bfs(g, 0)
        assert res.distances.tolist() == [0]


class TestConnectedComponents:
    @pytest.mark.parametrize("method", ["sv", "bfs"])
    def test_disconnected(self, disconnected_graph, method):
        labels = connected_components(disconnected_graph, method=method)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]
        assert labels[5] not in (labels[0], labels[3])

    @pytest.mark.parametrize("method", ["sv", "bfs"])
    def test_labels_are_min_vertex(self, disconnected_graph, method):
        labels = connected_components(disconnected_graph, method=method)
        assert labels.tolist() == [0, 0, 0, 3, 3, 5]

    def test_methods_agree_random(self):
        g = random_gnm(80, 90, seed=13)
        a = connected_components(g, method="sv")
        b = connected_components(g, method="bfs")
        assert np.array_equal(a, b)

    def test_against_networkx(self):
        g = random_gnm(100, 110, seed=17)
        gx = to_networkx(g)
        labels = connected_components(g)
        ref_comps = list(nx.connected_components(gx))
        assert len(set(labels.tolist())) == len(ref_comps)
        for comp in ref_comps:
            ls = {int(labels[v]) for v in comp}
            assert len(ls) == 1

    def test_directed_weak_components(self):
        g = from_edge_list([(0, 1), (2, 1)], directed=True)
        labels = connected_components(g)
        assert labels[0] == labels[1] == labels[2]

    def test_component_sizes(self, disconnected_graph):
        labels = connected_components(disconnected_graph)
        assert component_sizes(labels) == {0: 3, 3: 2, 5: 1}

    def test_largest_component(self, disconnected_graph):
        assert largest_component(disconnected_graph).tolist() == [0, 1, 2]

    def test_edge_mask_splits_component(self, two_triangles_bridge):
        g = two_triangles_bridge
        view = g.view()
        u, v = g.edge_endpoints()
        bridge = next(
            i for i in range(g.n_edges) if {int(u[i]), int(v[i])} == {2, 3}
        )
        before = len(set(connected_components(view).tolist()))
        view.deactivate(bridge)
        after = len(set(connected_components(view).tolist()))
        assert before == 1 and after == 2

    def test_unknown_method_rejected(self, triangle_plus_tail):
        with pytest.raises(ValueError):
            connected_components(triangle_plus_tail, method="magic")

    def test_empty_graph(self):
        g = from_edge_list([], n_vertices=0)
        assert connected_components(g).shape[0] == 0


class TestStConnectivity:
    def test_connected_pair(self, two_triangles_bridge):
        assert st_connectivity(two_triangles_bridge, 0, 5)

    def test_disconnected_pair(self, disconnected_graph):
        assert not st_connectivity(disconnected_graph, 0, 4)

    def test_same_vertex(self, triangle_plus_tail):
        assert st_connectivity(triangle_plus_tail, 1, 1)

    def test_directed_asymmetry(self):
        g = from_edge_list([(0, 1), (1, 2)], directed=True)
        assert st_connectivity(g, 0, 2)
        assert not st_connectivity(g, 2, 0)

    def test_matches_bfs_random(self):
        g = random_gnm(70, 80, seed=23)
        d = bfs_distances(g, 0)
        for t in range(0, 70, 7):
            assert st_connectivity(g, 0, t) == (d[t] >= 0)

    def test_respects_edge_mask(self, two_triangles_bridge):
        g = two_triangles_bridge
        view = g.view()
        u, v = g.edge_endpoints()
        bridge = next(
            i for i in range(g.n_edges) if {int(u[i]), int(v[i])} == {2, 3}
        )
        view.deactivate(bridge)
        assert not st_connectivity(view, 0, 5)


#: Caller ids that name no vertex: never truncated to one.
NOT_VERTEX_IDS = [1.5, "3", True, float("nan")]


class TestVertexIds:
    """Every entry point that takes caller vertex ids refuses strings,
    booleans, non-integral numbers and NaN the same way (the pLA label
    rule), accepts integral floats, and range-checks them."""

    @staticmethod
    def _entry_points(g, tmp_path):
        from repro.centrality import brandes, closeness_centrality
        from repro.community.resweep import local_resweep
        from repro.kernels import msbfs
        from repro.sharded import build_shard_set, sharded_closeness, sharded_msbfs

        ss = build_shard_set(g, tmp_path / "ss", k=2)
        return {
            "bfs": lambda v: bfs(g, v).distances,
            "msbfs": lambda v: msbfs(g, [0, v]).distances,
            "sharded_msbfs": lambda v: sharded_msbfs(ss, [0, v]).distances,
            "closeness": lambda v: closeness_centrality(g, sources=[v]),
            "sharded_closeness": lambda v: sharded_closeness(ss, sources=[v]),
            "brandes": lambda v: brandes(g, sources=[v]).vertex,
            "local_resweep": lambda v: local_resweep(g, touched=[v]).labels,
            "st_connectivity": lambda v: st_connectivity(g, v, 0),
        }

    @pytest.mark.parametrize("bad", NOT_VERTEX_IDS, ids=repr)
    def test_non_integer_ids_refused(self, two_triangles_bridge, tmp_path, bad):
        for name, run in self._entry_points(two_triangles_bridge, tmp_path).items():
            with pytest.raises(GraphStructureError):
                run(bad)
                pytest.fail(f"{name} accepted {bad!r}")

    def test_out_of_range_refused(self, two_triangles_bridge, tmp_path):
        for name, run in self._entry_points(two_triangles_bridge, tmp_path).items():
            for bad in (-1, 6, 6.0):
                with pytest.raises(GraphStructureError, match="out of range"):
                    run(bad)
                    pytest.fail(f"{name} accepted {bad!r}")

    def test_integral_floats_accepted(self, two_triangles_bridge, tmp_path):
        for name, run in self._entry_points(two_triangles_bridge, tmp_path).items():
            assert np.array_equal(run(3.0), run(3)), name
