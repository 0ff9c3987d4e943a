"""Tests for the paper's future-work extensions: spectral modularity
maximization and dynamic-network analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.community import modularity, pma, spectral_modularity
from repro.datasets import karate_club
from repro.dynamic import EdgeEvent, IncrementalComponents, StreamEngine
from repro.errors import ClusteringError, GraphStructureError
from repro.generators import planted_partition
from repro.graph import from_edge_list
from repro.kernels import connected_components
from repro.metrics import global_clustering_coefficient, triangle_counts

from tests.conftest import random_gnm


class TestSpectralModularity:
    def test_karate_newman_score(self):
        """Newman (2006) reports Q = 0.419 for the karate club."""
        r = spectral_modularity(karate_club())
        assert r.modularity == pytest.approx(0.419, abs=0.005)
        assert r.n_clusters == 4

    def test_recovers_planted_partition(self):
        pp = planted_partition([40] * 5, 0.35, 0.01, rng=np.random.default_rng(0))
        r = spectral_modularity(pp.graph)
        truth = modularity(pp.graph, pp.labels)
        assert r.modularity >= 0.98 * truth

    def test_beats_or_matches_pma_on_karate(self):
        g = karate_club()
        assert spectral_modularity(g).modularity >= pma(g).modularity

    def test_two_cliques(self):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges += [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
        edges += [(0, 6)]
        g = from_edge_list(edges)
        r = spectral_modularity(g)
        assert r.n_clusters == 2
        assert len(set(r.labels[:6].tolist())) == 1
        assert len(set(r.labels[6:].tolist())) == 1

    def test_indivisible_clique(self):
        g = from_edge_list([(i, j) for i in range(8) for j in range(i + 1, 8)])
        r = spectral_modularity(g)
        assert r.n_clusters == 1
        assert r.modularity == pytest.approx(0.0)

    def test_no_fine_tune_still_positive(self):
        r = spectral_modularity(karate_club(), fine_tune=False)
        assert r.modularity > 0.3

    def test_random_graph_bounded(self):
        g = random_gnm(80, 200, seed=1)
        r = spectral_modularity(g)
        assert -0.5 <= r.modularity < 1.0

    def test_edgeless(self):
        g = from_edge_list([], n_vertices=5)
        r = spectral_modularity(g)
        assert r.modularity == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ClusteringError):
            spectral_modularity(from_edge_list([], n_vertices=0))

    def test_directed_rejected(self):
        with pytest.raises(GraphStructureError):
            spectral_modularity(from_edge_list([(0, 1)], directed=True))


class TestIncrementalComponents:
    def test_insert_merges(self):
        ic = IncrementalComponents(5)
        assert ic.n_components == 5
        ic.add_edge(0, 1)
        ic.add_edge(1, 2)
        assert ic.n_components == 3
        assert ic.connected(0, 2)
        assert not ic.connected(0, 3)
        assert ic.component_size(2) == 3

    def test_duplicate_insert(self):
        ic = IncrementalComponents(3)
        assert ic.add_edge(0, 1)
        assert not ic.add_edge(1, 0)
        assert ic.n_edges == 1

    def test_delete_rebuilds(self):
        ic = IncrementalComponents(4)
        ic.add_edge(0, 1)
        ic.add_edge(1, 2)
        ic.add_edge(2, 3)
        assert ic.n_components == 1
        assert ic.delete_edge(1, 2)
        assert not ic.connected(0, 3)
        assert ic.n_components == 2

    def test_delete_redundant_edge_keeps_connectivity(self):
        ic = IncrementalComponents(3)
        for e in [(0, 1), (1, 2), (0, 2)]:
            ic.add_edge(*e)
        ic.delete_edge(0, 1)
        assert ic.connected(0, 1)  # still via 2

    def test_delete_missing(self):
        ic = IncrementalComponents(3)
        assert not ic.delete_edge(0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphStructureError):
            IncrementalComponents(3).add_edge(1, 1)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "del"]),
                st.integers(0, 9),
                st.integers(0, 9),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_static_recompute(self, ops):
        ic = IncrementalComponents(10)
        edges: set[tuple[int, int]] = set()
        for kind, u, v in ops:
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if kind == "add":
                ic.add_edge(u, v)
                edges.add(key)
            else:
                ic.delete_edge(u, v)
                edges.discard(key)
        g = from_edge_list(sorted(edges), n_vertices=10)
        ref = connected_components(g)
        mine = ic.labels()
        for a in range(10):
            for b in range(a + 1, 10):
                assert (mine[a] == mine[b]) == (ref[a] == ref[b])


def _feed(engine, *batches):
    """Apply ``batches`` of ``(kind, u, v)`` at t = 0, 1, ...; the last result."""
    for t, batch in enumerate(batches):
        res = engine.apply_batch([EdgeEvent(k, u, v, t=t) for k, u, v in batch])
    return res


class TestStreamingStats:
    """The stream engine's ``stats`` analytic: exact triangle, wedge and
    clustering counts maintained per batch."""

    def test_triangle_counting(self):
        eng = StreamEngine(5, analytics=("stats",))
        assert _feed(eng, [("add", 0, 1), ("add", 1, 2)]).n_triangles == 0
        assert _feed(eng, [("add", 0, 2)]).n_triangles == 1
        res = _feed(eng, [("add", 2, 3), ("add", 3, 0)])
        assert res.n_triangles == 2  # 0-1-2 and 0-2-3
        res = _feed(eng, [("delete", 0, 2)])
        assert res.n_triangles == 0  # edge 0-2 was in both
        assert int(triangle_counts(eng.snapshot()).sum()) // 3 == 0

    def test_matches_static_metrics(self):
        rng = np.random.default_rng(3)
        ops = []
        for _ in range(300):
            u, v = rng.integers(0, 40, size=2)
            if u != v:
                kind = "add" if rng.random() < 0.85 else "delete"
                ops.append((kind, int(u), int(v)))
        eng = StreamEngine(40, analytics=("stats",))
        res = _feed(eng, *(ops[i:i + 16] for i in range(0, len(ops), 16)))
        g = eng.snapshot()
        assert res.global_clustering == pytest.approx(
            global_clustering_coefficient(g)
        )
        assert res.n_triangles == int(triangle_counts(g).sum()) // 3

    def test_average_degree(self):
        eng = StreamEngine(4, analytics=("degree",))
        res = _feed(eng, [("add", 0, 1), ("add", 2, 3)])
        assert np.mean([s for _, s in res.degree_topk]) * 3 == pytest.approx(1.0)

    def test_duplicate_and_missing(self):
        eng = StreamEngine(3, analytics=("stats",))
        res = _feed(eng, [("add", 0, 1), ("add", 1, 0), ("delete", 1, 2)])
        assert res.n_applied == 1 and res.n_edges == 1
        assert _feed(eng, [("add", 0, 1)]).n_applied == 0
