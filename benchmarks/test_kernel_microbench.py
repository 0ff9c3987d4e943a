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


@pytest.mark.benchmark_smoke
def test_segments_smoke(graph):
    """Measured gates for the §1.2c segment-primitive fast paths.

    Asserts the vectorized clustering-coefficient kernel beats the
    per-edge arc loop ≥3x, and multilevel pLA beats single-level pLA
    ≥2x at equal-or-better modularity, both on R-MAT scale 12.  Writes
    ``benchmarks/results/segments_smoke.json``.
    """
    from _common import timed, write_result_json
    from repro.metrics.clustering import local_clustering_coefficients
    from repro.qa.oracles import triangle_counts_arcloop

    # warm caches (arc_sources / edge_endpoints are lazily built)
    graph.arc_sources()
    graph.edge_endpoints()

    lcc, t_vec = timed(local_clustering_coefficients, graph)
    tri_ref, t_loop = timed(triangle_counts_arcloop, graph)
    lcc_speedup = t_loop / t_vec
    np.testing.assert_array_equal(
        np.asarray(lcc > 0), np.asarray(tri_ref > 0)
    )

    single, t_single = timed(
        pla, graph, rng=np.random.default_rng(0)
    )
    multi, t_multi = timed(
        pla, graph, multilevel=True, rng=np.random.default_rng(0)
    )
    pla_speedup = t_single / t_multi

    write_result_json(
        "segments_smoke",
        {
            "graph": {
                "family": "rmat",
                "scale": 12,
                "n_vertices": graph.n_vertices,
                "n_edges": graph.n_edges,
            },
            "clustering_coefficients": {
                "vectorized_seconds": t_vec,
                "arcloop_seconds": t_loop,
                "speedup": lcc_speedup,
            },
            "pla": {
                "single_level_seconds": t_single,
                "single_level_modularity": single.modularity,
                "multilevel_seconds": t_multi,
                "multilevel_modularity": multi.modularity,
                "speedup": pla_speedup,
            },
        },
    )
    assert lcc_speedup >= 3.0, (
        f"vectorized lcc only {lcc_speedup:.2f}x over the arc loop"
    )
    assert pla_speedup >= 2.0, (
        f"multilevel pLA only {pla_speedup:.2f}x over single-level"
    )
    assert multi.modularity + 1e-9 >= single.modularity, (
        f"multilevel modularity {multi.modularity:.4f} regressed below "
        f"single-level {single.modularity:.4f}"
    )

