"""Streaming ingestion: dynamic structures, events, crawlers, engine.

Property tests (hypothesis) pin the engine's two incremental analytics
against from-scratch recomputation on arbitrary churn sequences split
into random batches:

* the ``components`` analytic — labels after any add/delete/re-insert
  batch equal a scratch union-find over the surviving edge set, in the
  canonical min-vertex-id form the batch ``connected_components``
  kernel produces.
* the ``stats`` analytic — triangle/wedge/clustering counts and
  degrees equal a scratch recount after every batch.

The engine tests cover the per-batch replay surface: crawl determinism
and coverage per policy, ``.events`` IO round-trips, prefix correctness,
checkpoint/restore bit-identity, and a seeded engine
(:meth:`StreamEngine.from_graph`) against one fed the same ``t=0`` batch.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import karate_club
from repro.dynamic import (
    ANALYTICS,
    CRAWL_POLICIES,
    EdgeEvent,
    StreamEngine,
    canonical_final_edges,
    crawl_events,
    group_batches,
    read_events,
    stream_replay,
    write_events,
)
from repro.errors import GraphStructureError
from repro.graph.builder import from_edge_array
from repro.kernels.bfs import st_connectivity
from repro.kernels.connected import connected_components


# ---------------------------------------------------------------------------
# Strategies: operation sequences over a small fixed vertex universe
# ---------------------------------------------------------------------------
N = 12

ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "delete"]),
        st.integers(0, N - 1),
        st.integers(0, N - 1),
    ),
    min_size=0,
    max_size=80,
)


def _scratch_components(n, live_edges):
    """Reference: union-find from scratch over the surviving edge set."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in live_edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    roots = [find(v) for v in range(n)]
    # canonical: min vertex id per component — roots are already minimal
    # under the min-root union above.
    return np.asarray(roots, dtype=np.int64)


def _batches(sequence, cuts):
    """``sequence`` split into consecutive batches of the ``cuts`` sizes
    (cycled), as timestamped events."""
    out, i, t = [], 0, 0
    while i < len(sequence):
        size = cuts[t % len(cuts)]
        out.append([EdgeEvent(kind, u, v, t=t)
                    for kind, u, v in sequence[i:i + size]])
        i, t = i + size, t + 1
    return out


def _apply_ops(n, sequence, cuts):
    """Run one op sequence, split into batches of the ``cuts`` sizes,
    through the engine's ``components`` analytic; yields each batch's
    result with the live edge set after it."""
    eng = StreamEngine(n, analytics=("components",))
    live = set()
    for batch in _batches(sequence, cuts):
        res = eng.apply_batch(batch)
        for ev in batch:
            if ev.u != ev.v:
                (live.add if ev.kind == "add" else live.discard)(ev.key)
        yield eng, res, live


class TestIncrementalComponentsProperties:
    @given(ops, st.lists(st.integers(1, 8), min_size=1, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_churn_equals_scratch_union_find(self, sequence, cuts):
        for _, res, live in _apply_ops(N, sequence, cuts):
            ref = _scratch_components(N, sorted(live))
            assert np.array_equal(res.labels, ref)
            assert res.n_components == len(np.unique(ref))
            assert res.n_edges == len(live)

    @given(ops, st.lists(st.integers(1, 8), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_labels_canonical_and_stable(self, sequence, cuts):
        # Labels are min-vertex-id per component, so a batch that
        # applies nothing leaves them bit-identical, and each label is
        # the smallest member of its component.
        for eng, res, _ in _apply_ops(N, sequence, cuts):
            for lbl in np.unique(res.labels):
                members = np.nonzero(res.labels == lbl)[0]
                assert lbl == members.min()
            again = eng.apply_batch([EdgeEvent("add", 0, 0, t=res.t)])
            assert again.n_applied == 0
            assert np.array_equal(again.labels, res.labels)

    @given(ops, st.lists(st.integers(1, 8), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_connectivity_queries_match_labels(self, sequence, cuts):
        for eng, res, _ in _apply_ops(N, sequence, cuts):
            snap = eng.snapshot()
            lab = res.labels
            for u, v in [(0, 1), (2, 9), (N - 1, N - 2)]:
                assert st_connectivity(snap, u, v) == (lab[u] == lab[v])
            assert np.array_equal(lab, connected_components(snap))


def _scratch_stats(n, live_edges):
    """Reference triangle/wedge counts over the surviving edge set."""
    adj = [set() for _ in range(n)]
    for u, v in live_edges:
        adj[u].add(v)
        adj[v].add(u)
    tri = sum(
        len(adj[u] & adj[v]) for u, v in live_edges
    ) // 3 if live_edges else 0
    deg = [len(a) for a in adj]
    wedges = sum(d * (d - 1) // 2 for d in deg)
    return tri, wedges, deg


class TestStreamingStatsProperties:
    """The engine's ``stats`` analytic at batch cost equals a recount
    after every batch, whatever the batch boundaries."""

    @given(ops, st.lists(st.integers(1, 8), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_counters_equal_recount(self, sequence, cuts):
        eng = StreamEngine(N, analytics=("stats", "degree"), k=N)
        live = set()
        for batch in _batches(sequence, cuts):
            res = eng.apply_batch(batch)
            for ev in batch:
                if ev.u != ev.v:
                    (live.add if ev.kind == "add" else live.discard)(ev.key)
            tri, wedges, deg = _scratch_stats(N, sorted(live))
            assert res.n_edges == len(live)
            assert res.n_triangles == tri
            assert res.n_wedges == wedges
            assert sorted(res.degree_topk) == [
                (v, deg[v] / (N - 1)) for v in range(N)
            ]
            assert res.global_clustering == (
                3.0 * tri / wedges if wedges else 0.0
            )


# ---------------------------------------------------------------------------
# Events: grouping, canonical replay, file IO
# ---------------------------------------------------------------------------
class TestEvents:
    def test_group_batches_splits_on_timestamp(self):
        evs = [
            EdgeEvent("add", 0, 1, t=0),
            EdgeEvent("add", 1, 2, t=0),
            EdgeEvent("delete", 0, 1, t=3),
        ]
        batches = list(group_batches(evs))
        assert [len(b) for b in batches] == [2, 1]
        assert batches[1][0].kind == "delete"

    def test_group_batches_rejects_regression(self):
        evs = [EdgeEvent("add", 0, 1, t=5), EdgeEvent("add", 1, 2, t=4)]
        with pytest.raises(GraphStructureError):
            list(group_batches(evs))

    def test_canonical_final_edges_semantics(self):
        evs = [
            EdgeEvent("add", 1, 0, t=0, weight=2.0),
            EdgeEvent("add", 0, 1, t=0, weight=9.0),  # dup: first weight wins
            EdgeEvent("add", 3, 3, t=0),  # self-loop ignored
            EdgeEvent("delete", 0, 1, t=1),
            EdgeEvent("add", 0, 1, t=2, weight=4.0),  # re-insert, new weight
            EdgeEvent("delete", 5, 6, t=2),  # deleting absent: no-op
        ]
        assert canonical_final_edges(evs) == [(0, 1, 4.0)]

    def test_events_file_roundtrip(self, tmp_path):
        evs = [
            EdgeEvent("add", 0, 1, t=0),
            EdgeEvent("add", 2, 3, t=0, weight=2.5),
            EdgeEvent("delete", 0, 1, t=1),
        ]
        path = tmp_path / "stream.events"
        write_events(path, evs, n_vertices=7)
        n, back = read_events(path)
        assert n == 7
        assert back == evs

    def test_bad_event_kind_rejected(self):
        with pytest.raises(GraphStructureError):
            EdgeEvent("toggle", 0, 1)


# ---------------------------------------------------------------------------
# Crawler sources
# ---------------------------------------------------------------------------
class TestCrawlers:
    @pytest.mark.parametrize("policy", CRAWL_POLICIES)
    def test_full_crawl_reveals_every_edge(self, policy):
        g = karate_club()
        evs = crawl_events(
            g, policy=policy, batch_size=4,
            rng=np.random.default_rng(7),
        )
        final = canonical_final_edges(evs)
        src = np.repeat(np.arange(g.n_vertices), np.diff(g.offsets))
        keep = src < g.targets
        expect = sorted(
            (int(a), int(b), 1.0)
            for a, b in zip(src[keep], g.targets[keep])
        )
        assert final == expect

    @pytest.mark.parametrize("policy", CRAWL_POLICIES)
    def test_crawl_deterministic_under_seed(self, policy):
        g = karate_club()
        a = crawl_events(
            g, policy=policy, batch_size=4,
            rng=np.random.default_rng(3),
        )
        b = crawl_events(
            g, policy=policy, batch_size=4,
            rng=np.random.default_rng(3),
        )
        assert a == b

    def test_max_batches_truncates(self):
        g = karate_club()
        evs = crawl_events(
            g, policy="bfs", batch_size=2, max_batches=3,
            rng=np.random.default_rng(0),
        )
        assert evs
        assert max(e.t for e in evs) <= 2
        assert len(canonical_final_edges(evs)) < g.n_edges


# ---------------------------------------------------------------------------
# StreamEngine
# ---------------------------------------------------------------------------
class TestStreamEngine:
    def test_prefix_correctness_smoke(self):
        g = karate_club()
        evs = crawl_events(
            g, policy="bfs", batch_size=8, rng=np.random.default_rng(0)
        )
        eng = StreamEngine(
            g.n_vertices, analytics=("components", "stats", "degree")
        )
        for batch in group_batches(evs):
            res = eng.apply_batch(batch)
            snap = eng.snapshot()
            ref = connected_components(snap)
            assert np.array_equal(res.labels, ref)
            assert res.n_components == len(np.unique(ref))
        # after the full crawl the engine holds the hidden graph
        assert eng.n_edges == g.n_edges

    def test_empty_batch_rejected(self):
        eng = StreamEngine(4)
        with pytest.raises(GraphStructureError):
            eng.apply_batch([])

    def test_checkpoint_restore_bit_identical(self, tmp_path):
        g = karate_club()
        evs = crawl_events(
            g, policy="mod", batch_size=6, rng=np.random.default_rng(1)
        )
        batches = list(group_batches(evs))
        cut = len(batches) // 2

        full = StreamEngine(
            g.n_vertices, analytics=("components", "stats", "degree"), k=5
        )
        for b in batches:
            full.apply_batch(b)

        part = StreamEngine(
            g.n_vertices, analytics=("components", "stats", "degree"), k=5
        )
        for b in batches[:cut]:
            part.apply_batch(b)
        part.save(tmp_path / "stream.ckpt")
        resumed = StreamEngine(
            g.n_vertices, analytics=("components", "stats", "degree"), k=5
        )
        resumed.resume(tmp_path / "stream.ckpt")
        for b in batches[cut:]:
            resumed.apply_batch(b)

        a = [r.checksum for r in full.results]
        b = [r.checksum for r in resumed.results]
        assert a == b
        assert np.array_equal(
            full.results[-1].labels, resumed.results[-1].labels
        )

    def test_stream_replay_registered_algorithm(self):
        g = karate_club()
        res = stream_replay(g, policy="bfs", batch_size=8)
        assert res.n_edges == g.n_edges
        ref = connected_components(g)
        assert np.array_equal(res.labels, ref)
        assert res.batch_checksums.shape[0] == res.n_batches


# ---------------------------------------------------------------------------
# Snapshots: the last CSR with the net delta merged in
# ---------------------------------------------------------------------------
weighted_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "delete"]),
        st.integers(0, N - 1),
        st.integers(0, N - 1),
        st.sampled_from([1.0, 0.5, 2.0, 3.25]),
    ),
    min_size=0,
    max_size=60,
)


def _assert_same_csr(got, want):
    """Bit-identical in every array the CSR carries, dtypes included."""
    for name in ("offsets", "targets", "weights", "arc_edge_ids"):
        a, b = getattr(got, name), getattr(want, name)
        if a is None or b is None:
            assert a is b, name
            continue
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.n_edges == want.n_edges


def _engine_and_mirror(n, batches):
    """Apply ``batches`` to a components-only engine and a DynamicGraph
    under the same add/delete semantics; yields after every batch."""
    from repro.graph.dynamic import DynamicGraph

    eng = StreamEngine(n, analytics=("components",))
    dyn = DynamicGraph(n, sorted_adjacency=False)
    for t, batch in enumerate(batches):
        for kind, u, v, w in batch:
            if u != v:
                if kind == "add":
                    dyn.add_edge(u, v, w)
                else:
                    dyn.delete_edge(u, v)
        eng.apply_batch(
            [EdgeEvent(kind, u, v, t=t, weight=w) for kind, u, v, w in batch]
        )
        yield eng, dyn


class TestSnapshotMerge:
    @settings(max_examples=60, deadline=None)
    @given(weighted_ops, st.integers(1, 6))
    def test_snapshot_equals_to_csr(self, sequence, batch_len):
        batches = [sequence[i:i + batch_len]
                   for i in range(0, len(sequence), batch_len)] or [[]]
        batches = [b for b in batches if b]
        for eng, dyn in _engine_and_mirror(N, batches):
            _assert_same_csr(eng.snapshot(), dyn.to_csr())

    @pytest.mark.parametrize("name,batches", [
        ("empty base", [[("delete", 0, 1, 1.0)]]),
        ("adds only", [[("add", 0, 3, 2.0), ("add", 5, 1, 0.5),
                        ("add", 2, 7, 1.0)]]),
        ("deletes only", [[("add", 0, 3, 1.0), ("add", 3, 4, 1.0),
                           ("add", 1, 2, 1.0)],
                          [("delete", 4, 3, 1.0), ("delete", 0, 3, 1.0)]]),
        ("delete and re-add with a new weight", [
            [("add", 0, 3, 1.0), ("add", 2, 3, 1.0)],
            [("delete", 3, 0, 1.0), ("add", 0, 3, 4.5)]]),
        ("duplicate adds", [[("add", 1, 2, 1.0), ("add", 2, 1, 9.0)],
                            [("add", 1, 2, 3.0), ("add", 6, 1, 2.0),
                             ("add", 1, 6, 5.0)]]),
        ("skipped self-loop", [[("add", 4, 4, 1.0), ("add", 4, 5, 1.0)]]),
        ("add then delete in one batch", [[("add", 0, 1, 1.0)],
                                          [("add", 2, 3, 1.0),
                                           ("delete", 2, 3, 1.0)]]),
    ])
    def test_cases(self, name, batches):
        for eng, dyn in _engine_and_mirror(8, batches):
            _assert_same_csr(eng.snapshot(), dyn.to_csr())

    def test_no_op_batch_keeps_the_cached_snapshot(self):
        eng = StreamEngine(6, analytics=("components",))
        eng.apply_batch([EdgeEvent("add", 0, 1, t=0),
                         EdgeEvent("add", 1, 2, t=0)])
        snap = eng.snapshot()
        assert eng.snapshot() is snap
        res = eng.apply_batch([EdgeEvent("add", 1, 0, t=1),
                               EdgeEvent("delete", 3, 4, t=1),
                               EdgeEvent("add", 5, 5, t=1)])
        assert res.n_applied == 0
        assert eng.snapshot() is snap

    def test_from_state_engine_continues_identically(self):
        import pickle

        g = karate_club()
        rng = np.random.default_rng(3)
        rows = [(("delete" if i % 4 == 3 else "add"), int(u), int(v),
                 float(1 + i % 3)) for i, (u, v)
                in enumerate(rng.integers(34, size=(120, 2)))]
        batches = [rows[i:i + 12] for i in range(0, 120, 12)]
        analytics = ("components", "stats", "degree", "closeness")
        a = StreamEngine.from_graph(g, analytics=analytics)
        for t, batch in enumerate(batches[:4], start=1):
            a.apply_batch([EdgeEvent(k, u, v, t=t, weight=w)
                           for k, u, v, w in batch])
        # a pending delta (no snapshot taken) travels with the state
        b = StreamEngine.from_state(pickle.loads(pickle.dumps(a.state())))
        for t, batch in enumerate(batches[4:], start=5):
            evs = [EdgeEvent(k, u, v, t=t, weight=w) for k, u, v, w in batch]
            ra, rb = a.apply_batch(evs), b.apply_batch(evs)
            assert ra.checksum == rb.checksum and ra.n_edges == rb.n_edges
            _assert_same_csr(b.snapshot(), a.snapshot())

    def test_snapshot_builds_nothing_from_scratch(self, monkeypatch):
        """After the engine's first snapshot, later ones merge the delta
        into the last CSR: no ``pair_order`` sort, no ``from_edge_array``
        rebuild."""
        import repro.graph.builder as builder
        import repro.kernels.segments as segments

        eng = StreamEngine.from_graph(karate_club(), analytics=("degree",))
        eng.snapshot()

        def banned(*_a, **_k):
            raise AssertionError("snapshot rebuilt the CSR from scratch")

        # builder imports pair_order on first use, from segments
        monkeypatch.setattr(segments, "pair_order", banned)
        monkeypatch.setattr(builder, "from_edge_array", banned)
        for t, (kind, u, v) in enumerate([("add", 0, 9), ("delete", 0, 1),
                                          ("add", 0, 1), ("delete", 5, 6)],
                                         start=1):
            eng.apply_batch([EdgeEvent(kind, u, v, t=t, weight=2.0)])
            eng.snapshot()


# ---------------------------------------------------------------------------
# Seeded engines: from_graph against the t=0 batch it stands for
# ---------------------------------------------------------------------------
def _weighted():
    return from_edge_array(
        7, np.array([0, 0, 1, 1, 2, 3, 4, 5, 2]),
        np.array([1, 2, 2, 3, 3, 4, 5, 6, 5]),
        weights=np.array([0.5, 1.5, 2.0, 2.5, 3.0, 0.25, 4.0, 1.0, 2.0]),
    )


def _parallel_and_loop():
    # 0-1 and 1-2 twice with other weights, and a self-loop at 3
    return from_edge_array(
        6, np.array([0, 1, 0, 2, 3, 3, 4, 1]), np.array([1, 0, 2, 1, 3, 4, 5, 2]),
        weights=np.array([1.0, 9.0, 2.0, 3.0, 7.0, 1.5, 2.5, 4.0]),
        dedupe=False, drop_self_loops=False,
    )


def _directed():
    return from_edge_array(
        6, np.array([0, 1, 2, 3, 4, 5, 0, 2]), np.array([1, 2, 0, 4, 5, 3, 3, 1]),
        directed=True,
    )


def _t0_batch(g):
    """The ``t=0`` batch ``from_graph`` stands for: every ``u < v`` arc
    of the undirected graph as an add, in CSR order."""
    g = g.as_undirected() if g.directed else g
    src = np.repeat(np.arange(g.n_vertices), np.diff(g.offsets))
    keep = src < g.targets
    w = g.weights[keep] if g.is_weighted else np.ones(int(keep.sum()))
    return [EdgeEvent("add", int(u), int(v), t=0, weight=float(x))
            for u, v, x in zip(src[keep], g.targets[keep], w)]


def _churn(snap):
    """Delete one edge and re-add it with a new weight; delete another."""
    u, v = snap.edge_endpoints()
    return [EdgeEvent("delete", int(u[0]), int(v[0]), t=1),
            EdgeEvent("add", int(v[0]), int(u[0]), t=1, weight=6.5),
            EdgeEvent("delete", int(v[-1]), int(u[-1]), t=1)]


_SEEDED = {
    "karate": karate_club,
    "weighted": _weighted,
    "unit_weighted": lambda: from_edge_array(
        5, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 4]), weights=np.ones(4)),
    "parallel_and_loop": _parallel_and_loop,
    "directed": _directed,
}

# (t=0 checksum, churn checksum) with every analytic on and k=5, as the
# per-edge replay of the t=0 batch computed them
_PINNED = {
    "karate": (1438188590, 1036169519),
    "weighted": (549855298, 3033504521),
}


class TestSeededEngine:
    @pytest.mark.parametrize("name", sorted(_SEEDED))
    def test_from_graph_equals_the_fed_t0_batch(self, name):
        g = _SEEDED[name]()
        seeded = StreamEngine.from_graph(g, analytics=ANALYTICS, k=5)
        fed = StreamEngine(g.n_vertices, analytics=ANALYTICS, k=5)
        want = fed.apply_batch(_t0_batch(g))
        assert seeded.n_batches == fed.n_batches == 1
        got = seeded.results[0]
        for f in fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name
        _assert_same_csr(seeded.snapshot(), fed.snapshot())
        churn = _churn(fed.snapshot())
        after = seeded.apply_batch(churn)
        assert after.checksum == fed.apply_batch(churn).checksum
        assert after.n_applied == 3
        if name in _PINNED:
            assert (got.checksum, after.checksum) == _PINNED[name]

    def test_seeded_engine_has_no_history_to_save(self, tmp_path):
        eng = StreamEngine.from_graph(karate_club())
        with pytest.raises(ValueError, match="from_graph"):
            eng.save(tmp_path / "stream.ckpt")

    def test_edgeless_graph_seeds_no_batch(self):
        eng = StreamEngine.from_graph(from_edge_array(
            3, np.array([1]), np.array([1]), drop_self_loops=False))
        assert eng.n_batches == 0 and eng.n_edges == 0
