"""Kernel micro-benchmarks (pytest-benchmark timing loops).

Not a paper artifact — these track the throughput of the individual
SNAP building blocks (§3) so regressions in the vectorized kernels are
visible.  All instances are R-MAT small-world graphs, the paper's
stress case for irregular access.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.centrality import sampled_betweenness
from repro.community import pla, pma
from repro.generators import rmat
from repro.kernels import (
    bfs,
    biconnected_components,
    boruvka_msf,
    connected_components,
    delta_stepping,
)
from repro.metrics import triangle_counts


@pytest.fixture(scope="module")
def graph():
    return rmat(12, 8.0, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def weighted(graph):
    rng = np.random.default_rng(1)
    from repro.graph import from_edge_array

    u, v = graph.edge_endpoints()
    w = rng.uniform(0.1, 10.0, size=graph.n_edges)
    return from_edge_array(
        graph.n_vertices, u, v, weights=w, directed=False, dedupe=False
    )


def test_bench_bfs(benchmark, graph):
    hub = int(np.argmax(graph.degrees()))
    res = benchmark(bfs, graph, hub)
    assert res.n_reached > graph.n_vertices // 2


def test_bench_connected_components_sv(benchmark, graph):
    labels = benchmark(connected_components, graph)
    assert labels.shape[0] == graph.n_vertices


def test_bench_biconnected(benchmark, graph):
    res = benchmark(biconnected_components, graph)
    assert res.n_components > 0


def test_bench_boruvka(benchmark, weighted):
    ids = benchmark(boruvka_msf, weighted)
    assert ids.shape[0] > 0


def test_bench_delta_stepping(benchmark, weighted):
    res = benchmark(delta_stepping, weighted, 0)
    assert np.isfinite(res.distances).sum() > 1


def test_bench_sampled_betweenness(benchmark, graph):
    def run():
        return sampled_betweenness(
            graph, sample_fraction=0.01, min_samples=8,
            rng=np.random.default_rng(2),
        )

    vbc, ebc = benchmark(run)
    assert ebc.max() > 0


def test_bench_triangle_counting(benchmark, graph):
    tri = benchmark(triangle_counts, graph)
    assert tri.sum() > 0


@pytest.fixture(scope="module")
def smaller():
    return rmat(11, 6.0, rng=np.random.default_rng(4))


def test_bench_pma(benchmark, smaller):
    result = benchmark.pedantic(pma, args=(smaller,), rounds=1, iterations=1)
    assert result.modularity > 0


def test_bench_pla(benchmark, graph):
    result = benchmark.pedantic(
        pla, args=(graph,),
        kwargs={"rng": np.random.default_rng(0)},
        rounds=1, iterations=1,
    )
    assert result.modularity > 0

