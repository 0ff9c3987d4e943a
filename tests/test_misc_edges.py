"""Edge-case coverage across modules: error paths, rarely-hit branches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphStructureError
from repro.graph import DynamicGraph, Treap, from_edge_list
from repro.graph.csr import Graph
from repro.kernels import bfs, delta_stepping
from repro.parallel import ParallelContext
from repro.partitioning import fiedler_vector, spectral_bisection


class TestTreapEdges:
    def test_empty_min_max(self):
        t = Treap()
        with pytest.raises(KeyError):
            t.min_key()
        with pytest.raises(KeyError):
            t.max_key()

    def test_join_overlapping_ranges_rejected(self):
        a, b = Treap(), Treap()
        a.insert(5)
        b.insert(3)
        with pytest.raises(ValueError):
            a.join(b)

    def test_insert_overwrites_value(self):
        t = Treap()
        t.insert(7, 1.0)
        assert not t.insert(7, 2.5)  # overwrite, not new
        assert t.search(7) == 2.5
        assert len(t) == 1

    def test_join_with_empty(self):
        a, b = Treap(), Treap()
        a.insert(1)
        j = a.join(b)
        assert list(j) == [1]


class TestDynamicGraphEdges:
    def test_from_csr_roundtrip(self, weighted_graph):
        dyn = DynamicGraph.from_csr(weighted_graph)
        assert dyn.n_edges == weighted_graph.n_edges
        back = dyn.to_csr()
        assert back.n_edges == weighted_graph.n_edges
        assert back.edge_weight(1, 3) == 0.5

    def test_from_csr_directed_rejected(self):
        g = from_edge_list([(0, 1)], directed=True)
        with pytest.raises(GraphStructureError):
            DynamicGraph.from_csr(g)

    def test_self_loop_rejected(self):
        dyn = DynamicGraph(3)
        with pytest.raises(GraphStructureError):
            dyn.add_edge(1, 1)

    def test_unsorted_mode_deletion(self):
        dyn = DynamicGraph(5, sorted_adjacency=False)
        for v in (1, 2, 3, 4):
            dyn.add_edge(0, v)
        assert dyn.delete_edge(0, 2)
        assert sorted(dyn.neighbors(0).tolist()) == [1, 3, 4]


class TestGraphValidation:
    def test_bad_offsets_rejected(self):
        with pytest.raises(GraphStructureError):
            Graph(np.asarray([1, 2]), np.asarray([0]), directed=False)
        with pytest.raises(GraphStructureError):
            Graph(np.asarray([0, 2]), np.asarray([0]), directed=False)
        with pytest.raises(GraphStructureError):
            Graph(np.asarray([0, 1]), np.asarray([5]), directed=False)

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(GraphStructureError):
            Graph(
                np.asarray([0, 2, 1]),
                np.asarray([0, 1]),
                directed=False,
            )


class TestKernelEdges:
    def test_bfs_on_isolated_source(self):
        g = from_edge_list([(1, 2)], n_vertices=4)
        res = bfs(g, 0)
        assert res.n_reached == 1

    def test_delta_stepping_isolated(self):
        g = from_edge_list([(1, 2, 1.0)], n_vertices=4)
        d = delta_stepping(g, 0).distances
        assert d[0] == 0.0 and np.isinf(d[1])

    def test_bfs_max_depth_zero(self, triangle_plus_tail):
        res = bfs(triangle_plus_tail, 0, max_depth=0)
        assert res.n_reached == 1


class TestSpectralEdges:
    def test_fiedler_separates_components(self):
        """On a disconnected graph λ₂ = 0 and the eigenvector is a
        component indicator — the spectral split recovers the parts."""
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges += [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
        g = from_edge_list(edges)
        side = spectral_bisection(g, method="lanczos", refine=False)
        assert len(set(side[:6].tolist())) == 1
        assert len(set(side[6:].tolist())) == 1
        assert side[0] != side[6]


class TestContextEdges:
    def test_region_records_spawn(self):
        ctx = ParallelContext(8)
        with ctx.region():
            ctx.phase(100, 1)
        assert ctx.cost.regions == 1
        assert ctx.modeled_time(8) > ctx.cost.parallel_work / 8
