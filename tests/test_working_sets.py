"""Kernels whose transients used to grow with m hold a fixed working set.

``tracemalloc`` traces NumPy's buffers, so a peak taken around one warm
call is deterministic (RSS is not: it carries the allocator's kept heap
and whatever the process did before).  Each guard sits beside the
exactness check of the blocking it measures (DESIGN §1.2).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro
from repro.centrality import brandes
from repro.datasets.karate import karate_club
from repro.metrics import clustering, triangle_counts
from repro.parallel import ParallelContext
from repro.qa.oracles import triangle_counts_arcloop


def _rmat(scale: int):
    return repro.generators.rmat(
        scale, 8.0, rng=np.random.default_rng(1)
    ).as_undirected()


def peak_mb(fn) -> float:
    """Traced peak above the baseline of one warm call, in MB."""
    fn()  # warm: lazily built graph caches are not the kernel's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def rmat13():
    return _rmat(13)


# before blocking: 15.9 MB on R-MAT 11 and 33.5 MB on R-MAT 12
TRIANGLE_PEAK_MB = 10.0


def test_triangle_counts_working_set_is_fixed():
    g11, g12 = _rmat(11), _rmat(12)
    p11 = peak_mb(lambda: triangle_counts(g11))
    p12 = peak_mb(lambda: triangle_counts(g12))
    assert p12 < TRIANGLE_PEAK_MB
    assert p12 < 1.3 * p11  # m doubled; the working set did not


@pytest.mark.parametrize("block", [1, 1 << 40], ids=["one_query", "one_block"])
def test_triangle_counts_exact_at_any_block(block, monkeypatch):
    g, karate = _rmat(10), karate_club()
    view = karate.view()
    for e in range(0, karate.n_edges, 3):
        view.deactivate(e)
    want = [triangle_counts(g), triangle_counts(view)]
    monkeypatch.setattr(clustering, "QUERY_BLOCK", block)
    for got, ref, oracle in zip(
        (triangle_counts(g), triangle_counts(view)), want, (g, view)
    ):
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(got, triangle_counts_arcloop(oracle))


# before the arc budget fell to 1 << 18 (K = 8): 23.4 MB
BRANDES_PEAK_MB = 12.0


def test_default_k_brandes_working_set(rmat13):
    sources = list(range(32))
    assert peak_mb(lambda: brandes(rmat13, sources=sources)) < BRANDES_PEAK_MB
    got = brandes(rmat13, sources=sources)
    ref = brandes(rmat13, sources=sources, batch_size=8)
    np.testing.assert_allclose(got.vertex, ref.vertex, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.edge, ref.edge, rtol=1e-12, atol=0)


# before batches were dispatched in rounds: 45 MB, every batch's
# (n + m) partials alive at once (serial peak 7–9 MB)
POOLED_BRANDES_PEAK_MB = 20.0


def test_pooled_all_source_brandes_working_set():
    g = _rmat(11)
    with ParallelContext(2, backend="thread") as ctx:
        pooled = peak_mb(lambda: brandes(g, ctx=ctx))
        assert ctx.pool.batch_calls > 2  # more than one round per call
    assert pooled < POOLED_BRANDES_PEAK_MB
    assert pooled < 2.0 * peak_mb(lambda: brandes(g))


def _weighted(g):
    """``g`` with explicit weights: the CSR a stream engine holds."""
    u, v = g.edge_endpoints()
    w = 1.0 + (np.arange(u.shape[0]) % 7) / 4
    return repro.graph.builder.from_edge_array(
        g.n_vertices, u, v, weights=w, dedupe=False
    )


def test_seeded_stream_engine_holds_one_edge_set():
    """A seeded engine's only edge set is its CSR: seeding peaks at a
    few CSRs, and its state is that CSR plus O(n) arrays.  Before the
    seed came from the CSR (an event per edge into an edge set and a
    hybrid adjacency): a 21.6x peak and a 2.5x state on R-MAT 12.  The
    state bound is taken on a weighted input, whose CSR is the engine's:
    the engine always stores weights, which an unweighted input lacks."""
    import pickle

    from repro.dynamic import EdgeEvent, StreamEngine
    from repro.sharded.shards import in_core_nbytes

    g = _rmat(12)
    peak = peak_mb(lambda: StreamEngine.from_graph(g)) * 2**20
    assert peak <= 4 * in_core_nbytes(g)

    gw = _weighted(g)
    eng = StreamEngine.from_graph(gw)
    assert in_core_nbytes(eng.snapshot()) == in_core_nbytes(gw)
    assert len(pickle.dumps(eng.state())) <= 1.5 * in_core_nbytes(gw)

    rng = np.random.default_rng(5)
    u, v = gw.edge_endpoints()
    gone = rng.choice(gw.n_edges, 128, replace=False)
    batch = [EdgeEvent("delete", int(u[e]), int(v[e]), t=1) for e in gone]
    batch += [EdgeEvent("add", int(a), int(b), t=1)
              for a, b in rng.integers(gw.n_vertices, size=(128, 2))]

    def assert_no_per_edge_container():
        for obj in (eng, eng._cc):
            for name, val in vars(obj).items():
                if isinstance(val, (set, dict, list)):
                    assert len(val) <= max(1024, len(batch)), name

    assert_no_per_edge_container()
    eng.apply_batch(batch)
    assert_no_per_edge_container()


@pytest.mark.parametrize("block", [1, 1 << 40], ids=["one_query", "one_block"])
def test_stream_triangles_exact_at_any_block(block, monkeypatch):
    from repro.dynamic import StreamEngine, engine

    g = _rmat(10)
    want = int(triangle_counts(g).sum()) // 3
    monkeypatch.setattr(engine, "PROBE_BLOCK", block)
    assert StreamEngine.from_graph(g).state()["_tri"] == want


# before the engine dropped its batch history: 4.2x (fed) and 2.9x (replay)
HISTORY_RATIO = 1.25


def test_fed_engine_retains_o_graph_not_o_batches():
    """An engine fed batch by batch holds its graph and analytics, not
    the batches or their results: 180 more small batches on a resident
    R-MAT 12 add ~5 % to its edges and nothing per batch."""
    from repro.dynamic import EdgeEvent, StreamEngine

    g = _rmat(12)
    pairs = np.random.default_rng(2).integers(0, g.n_vertices, size=(200, 8, 2))
    batches = [[EdgeEvent("add", int(u), int(v), t=t + 1) for u, v in row]
               for t, row in enumerate(pairs)]
    retained = []
    tracemalloc.start()
    try:
        engine = StreamEngine.from_graph(g)
        for i, batch in enumerate(batches, 1):
            engine.apply_batch(batch)
            if i in (20, 200):
                retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert retained[1] <= HISTORY_RATIO * retained[0]


def test_stream_replay_peak_does_not_grow_with_batches():
    """The same 200 crawl steps of R-MAT 12, as 20 batches or as 200:
    the replay keeps one checksum per batch, so its peak does not
    depend on how many batches the crawl was cut into."""
    from repro.dynamic import stream_replay

    g = _rmat(12)

    def peak(max_batches, batch_size):
        return peak_mb(lambda: stream_replay(
            g, batch_size=batch_size, max_batches=max_batches,
            rng=np.random.default_rng(0)))

    assert peak(200, 1) <= HISTORY_RATIO * peak(20, 10)


def test_read_edge_list_working_set(tmp_path):
    """The chunked reader adds its parsed columns and a few MB of
    per-chunk arrays to the build: on R-MAT 12 it peaks within 1.2x of
    ``from_edge_array`` on the same arrays.  The line loop's lists of
    ints peaked at 1.51x."""
    from repro.graph.io import read_edge_list, write_edge_list

    g = _rmat(12)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    u, v = g.edge_endpoints()
    build = peak_mb(lambda: repro.graph.builder.from_edge_array(
        g.n_vertices, u, v))
    assert peak_mb(lambda: read_edge_list(path)) <= 1.2 * build


@pytest.mark.parametrize("chunk", [3, 1 << 30], ids=["few_bytes", "one_chunk"])
def test_read_edge_list_exact_at_any_chunk(chunk, monkeypatch, tmp_path):
    from repro.graph import io as graph_io

    g = _rmat(10)
    for src in (g, _weighted(g)):
        path = tmp_path / "g.txt"
        graph_io.write_edge_list(src, path)
        want = graph_io.read_edge_list(path)
        with monkeypatch.context() as m:
            m.setattr(graph_io, "READ_CHUNK", chunk)
            m.setattr(graph_io, "_read_lines", None)  # arrays only
            got = graph_io.read_edge_list(path)
        for name in ("offsets", "targets", "arc_edge_ids", "weights"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or np.array_equal(a, b), name
        np.testing.assert_array_equal(got.offsets, src.offsets)
        np.testing.assert_array_equal(got.arc_weights(), src.arc_weights())


def test_build_shard_set_working_set(tmp_path):
    """A shard-set build holds one shard's arcs and one edge-stream
    column beside the graph, and caches nothing on the caller's graph
    (the ``np.savez`` builder traced 2.15x, and left the graph's arc
    sources and edge endpoints behind)."""
    from repro.sharded import build_shard_set, in_core_nbytes

    build_shard_set(karate_club(), tmp_path / "warm", k=2, method="block")
    g = _rmat(14)
    assert g._arc_sources is None and g._edge_endpoints is None
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_shard_set(g, tmp_path / "s", k=4, method="block")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * in_core_nbytes(g)
    assert g._arc_sources is None and g._edge_endpoints is None


def test_verify_reads_members_in_blocks(tmp_path):
    """``verify`` checksums a ~2 MB member in fixed blocks, not whole."""
    from repro.sharded import build_shard_set

    ss = build_shard_set(_rmat(14), tmp_path / "s", k=1)
    assert ss.manifest["shards"][0]["n_arcs"] * 8 > 2e6
    assert ss.verify() == []
    assert peak_mb(ss.verify) < 1.0
