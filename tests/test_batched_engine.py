"""Batched multi-source traversal engine: parity and backend tests.

The batched engine (``msbfs`` + batched Brandes) must be an *exact*
drop-in for the per-source loops it replaces, on every graph family the
suite exercises and through every execution backend:

* ``msbfs`` lane ``k`` reproduces ``bfs(g, sources[k])`` distances
  exactly, including under :class:`EdgeSubsetView` edge masks and
  ``max_depth`` truncation (direction-optimized levels included);
* batched Brandes matches the textbook oracle
  (:func:`repro.qa.oracles.brandes_betweenness`) to 1e-9 on vertex and
  edge scores (karate + R-MAT + planted-partition, masked and not);
* ``backend="process"`` is bitwise-identical to ``backend="serial"``
  and hands the CSR arrays to workers zero-copy via shared memory.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.centrality.betweenness import brandes
from repro.centrality.closeness import closeness_centrality
from repro.datasets.karate import karate_club
from repro.generators.planted import planted_partition
from repro.generators.rmat import rmat
from repro.graph import from_edge_array
from repro.graph.csr import EdgeSubsetView
from repro.kernels._frontier import unwrap
from repro.kernels.bfs import bfs, default_batch_size, msbfs, source_batches
from repro.obs import run
from repro.parallel.runtime import ParallelContext
from repro.parallel.shm import attach_graph, share_graph
from repro.qa import oracles


def _graphs():
    pp = planted_partition(30, 0.25, 0.02, n_blocks=4, rng=np.random.default_rng(3))
    return {
        "karate": karate_club(),
        "rmat": rmat(8, 8.0, rng=np.random.default_rng(11)),
        "planted": pp.graph if hasattr(pp, "graph") else pp,
    }


def _views(graph, seed=7):
    rng = np.random.default_rng(seed)
    mask = np.ones(graph.n_edges, dtype=bool)
    mask[rng.random(graph.n_edges) < 0.3] = False
    return [graph, EdgeSubsetView(graph, mask)]


GRAPHS = _graphs()

#: msbfs-only inputs on top of GRAPHS: a directed graph (push levels
#: only), a vertex with no arcs, and a path deeper than 255 levels.
MSBFS_GRAPHS = {
    **GRAPHS,
    "rmat_directed": rmat(
        8, 8.0, rng=np.random.default_rng(13), directed=True
    ),
    "isolated": from_edge_array(
        6, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]), directed=False
    ),
    "path300": from_edge_array(
        300, np.arange(299), np.arange(1, 300), directed=False
    ),
}

#: Lane counts straddling every word width (uint8/16/32/64) and the
#: 64-lane word boundary (65 and 130 span two and three words).
LANE_COUNTS = (1, 8, 9, 16, 17, 32, 33, 64, 65, 130)


def _source_pool(graph, rng):
    """130 sources: vertex 0, a duplicate of it, a minimum-degree
    (isolated where the graph has one) vertex, then random draws —
    with replacement, so wide lane sets repeat sources."""
    pool = rng.integers(0, graph.n_vertices, size=max(LANE_COUNTS))
    pool[:3] = (0, 0, int(np.argmin(graph.degrees())))
    return pool


def _assert_lanes_match_bfs(gv, pool, max_depth=None):
    rows = {
        int(s): bfs(gv, int(s), max_depth=max_depth).distances
        for s in np.unique(pool)
    }
    for k in LANE_COUNTS:
        res = msbfs(gv, pool[:k], max_depth=max_depth)
        assert np.array_equal(res.sources, pool[:k])
        assert res.distances.shape == (k, rows[0].shape[0])
        assert res.distances.dtype == np.int32
        for lane, s in enumerate(pool[:k]):
            assert np.array_equal(res.distances[lane], rows[int(s)]), (k, lane)
        assert res.n_levels == int(res.distances.max())


@pytest.mark.parametrize("name", sorted(MSBFS_GRAPHS))
def test_msbfs_matches_per_source_bfs(name):
    graph = MSBFS_GRAPHS[name]
    rng = np.random.default_rng(5)
    for gv in _views(graph):
        _assert_lanes_match_bfs(gv, _source_pool(graph, rng))


@pytest.mark.parametrize("name", sorted(MSBFS_GRAPHS))
def test_msbfs_max_depth_parity(name):
    graph = MSBFS_GRAPHS[name]
    rng = np.random.default_rng(6)
    for gv in _views(graph):
        pool = _source_pool(graph, rng)
        for max_depth in (0, 1, 2):
            _assert_lanes_match_bfs(gv, pool, max_depth=max_depth)


def test_msbfs_sparse_levels_touch_only_frontier_arcs():
    """Long-diameter guard: a push level reports (and pays for) the
    frontier's own arcs, never the whole graph's."""
    path = MSBFS_GRAPHS["path300"]
    res = run("msbfs", path, [0, 150], trace=True)
    assert res.value.n_levels == 299
    levels = res.trace.find("level")
    assert len(levels) == 300  # the last one discovers nothing
    for sp in levels:
        assert sp.attrs["direction"] == "push"
        # source 0 walks right, source 150 both ways: <= 2 arcs each
        assert sp.attrs["arcs"] <= 2 * sp.attrs["frontier"] <= 6
    wide = run("msbfs", path, list(range(0, 300, 3)), trace=True)
    directions = {sp.attrs["direction"] for sp in wide.trace.find("level")}
    assert directions == {"pull", "push"}
    for sp in wide.trace.find("level"):
        if sp.attrs["direction"] == "pull":
            assert sp.attrs["arcs"] == path.n_arcs


def test_msbfs_empty_and_bad_sources():
    graph = GRAPHS["karate"]
    res = msbfs(graph, [])
    assert res.distances.shape == (0, graph.n_vertices)
    with pytest.raises(Exception):
        msbfs(graph, [graph.n_vertices])


def _oracle_brandes(gv, sources=None):
    """Oracle ``(vertex, edge)`` scores of a graph or masked view; the
    view is a ``RefGraph`` over its active edges, and edge scores come
    back indexed by the base graph's edge ids (masked edges score 0)."""
    graph, active = unwrap(gv)
    u, v = graph.edge_endpoints()
    ids = np.arange(graph.n_edges) if active is None else np.flatnonzero(active)
    ref = oracles.RefGraph(
        graph.n_vertices, zip(u[ids].tolist(), v[ids].tolist())
    )
    vertex, by_pair = oracles.brandes_betweenness(ref, sources=sources)
    edge = np.zeros(graph.n_edges)
    edge[ids] = [by_pair[(int(u[e]), int(v[e]))] for e in ids]
    return np.asarray(vertex), edge


@lru_cache(maxsize=None)
def _oracle_views(name):
    """One oracle per (graph, view), shared across batch sizes."""
    return [_oracle_brandes(gv) for gv in _views(GRAPHS[name])]


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("batch_size", [None, 2, 7])
def test_batched_brandes_matches_looped(name, batch_size):
    """The looped reference is the oracle's one-source-at-a-time loop."""
    views = _views(GRAPHS[name])
    for gv, (vertex, edge) in zip(views, _oracle_views(name)):
        batched = brandes(gv, batch_size=batch_size)
        np.testing.assert_allclose(batched.vertex, vertex, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(batched.edge, edge, rtol=1e-9, atol=1e-9)


def test_batched_brandes_source_subset_and_normalized():
    graph = GRAPHS["rmat"]
    n = graph.n_vertices
    srcs = list(range(0, n, 3))
    batched = brandes(graph, sources=srcs, normalized=True)
    vertex, edge = _oracle_brandes(graph, sources=srcs)
    np.testing.assert_allclose(
        batched.vertex, vertex / ((n - 1) * (n - 2) / 2), rtol=1e-9, atol=1e-9
    )
    np.testing.assert_allclose(
        batched.edge, edge / (n * (n - 1) / 2), rtol=1e-9, atol=1e-9
    )


def test_source_batches_shapes():
    batches = source_batches(range(10), 4, 100)
    assert [len(b) for b in batches] == [4, 4, 2]
    assert default_batch_size(0) == 1
    assert default_batch_size(10**9) == 1


def test_process_backend_bitwise_identical_to_serial():
    graph = GRAPHS["rmat"]
    serial = brandes(graph)
    with ParallelContext(2, backend="process") as ctx:
        via_process = brandes(graph, ctx=ctx)
    assert np.array_equal(serial.vertex, via_process.vertex)
    assert np.array_equal(serial.edge, via_process.edge)


def test_process_backend_closeness_bitwise_identical():
    graph = GRAPHS["planted"]
    serial = closeness_centrality(graph)
    with ParallelContext(2, backend="process") as ctx:
        via_process = closeness_centrality(graph, ctx=ctx)
    assert np.array_equal(serial, via_process)


def test_thread_backend_identical_to_serial():
    graph = GRAPHS["rmat"]
    serial = brandes(graph)
    with ParallelContext(2, backend="thread") as ctx:
        via_threads = brandes(graph, ctx=ctx)
    assert np.array_equal(serial.vertex, via_threads.vertex)
    assert np.array_equal(serial.edge, via_threads.edge)


def test_shared_graph_attach_is_zero_copy():
    graph = GRAPHS["rmat"]
    shared = share_graph(graph)
    try:
        attached = attach_graph(shared.spec, cache=False)
        # Views over the mapped segment, not copies.
        for arr in (attached.offsets, attached.targets, attached.arc_edge_ids):
            assert not arr.flags["OWNDATA"]
        assert np.array_equal(attached.offsets, graph.offsets)
        assert np.array_equal(attached.targets, graph.targets)
        assert attached.n_edges == graph.n_edges
        # Write-through proves both views alias one segment.
        original = int(attached.targets[0])
        view2 = attach_graph(shared.spec, cache=False)
        attached.targets[0] = original + 1
        assert int(view2.targets[0]) == original + 1
        attached.targets[0] = original
        # Traversals on the attached graph match the original.
        assert np.array_equal(bfs(attached, 0).distances, bfs(graph, 0).distances)
    finally:
        shared.close()


def test_shared_graph_close_idempotent():
    shared = share_graph(GRAPHS["karate"])
    shared.close()
    shared.close()  # second close is a no-op
    assert shared.shm is None
