"""Hypothesis property tests for the graph data structures."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.graph import (
    DynamicGraph,
    HybridAdjacency,
    Treap,
    from_edge_array,
    compress_vertices,
)
from repro.qa.invariants import validate


edge_lists = st.lists(
    st.tuples(st.integers(0, 19), st.integers(0, 19)),
    min_size=0,
    max_size=80,
)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_csr_degree_sum_equals_arcs(edges):
    src = np.asarray([e[0] for e in edges], dtype=np.int64)
    dst = np.asarray([e[1] for e in edges], dtype=np.int64)
    g = from_edge_array(20, src, dst, directed=False)
    assert int(g.degrees().sum()) == g.n_arcs == 2 * g.n_edges


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_csr_adjacency_symmetry(edges):
    src = np.asarray([e[0] for e in edges], dtype=np.int64)
    dst = np.asarray([e[1] for e in edges], dtype=np.int64)
    g = from_edge_array(20, src, dst, directed=False)
    for u in range(g.n_vertices):
        for v in g.neighbors(u):
            assert g.has_edge(int(v), u)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_csr_matches_reference_adjacency(edges):
    """CSR adjacency equals a straightforward set-of-sets construction."""
    src = np.asarray([e[0] for e in edges], dtype=np.int64)
    dst = np.asarray([e[1] for e in edges], dtype=np.int64)
    g = from_edge_array(20, src, dst, directed=False)
    ref = [set() for _ in range(20)]
    for u, v in edges:
        if u != v:
            ref[u].add(v)
            ref[v].add(u)
    for u in range(20):
        assert set(g.neighbors(u).tolist()) == ref[u]


@given(edge_lists, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_compress_preserves_total_weight(edges, k):
    """Contracting vertices preserves total inter-cluster edge weight."""
    src = np.asarray([e[0] for e in edges], dtype=np.int64)
    dst = np.asarray([e[1] for e in edges], dtype=np.int64)
    g = from_edge_array(20, src, dst, directed=False)
    labels = np.arange(20) % k
    c = compress_vertices(g, labels)
    u, v = g.edge_endpoints()
    expected = float(np.count_nonzero(labels[u] != labels[v]))
    assert c.edge_weights().sum() == expected


# ---------------------------------------------------------------------------
# Treap properties
# ---------------------------------------------------------------------------
key_sets = st.lists(st.integers(0, 200), min_size=0, max_size=60)


@given(key_sets)
@settings(max_examples=80, deadline=None)
def test_treap_matches_set_semantics(keys):
    t = Treap(seed=1)
    ref: set[int] = set()
    for k in keys:
        t.insert(k)
        ref.add(k)
    t.check_invariants()
    assert len(t) == len(ref)
    assert list(t) == sorted(ref)
    for k in range(0, 201, 7):
        assert (k in t) == (k in ref)


@given(key_sets, key_sets)
@settings(max_examples=60, deadline=None)
def test_treap_delete(insert_keys, delete_keys):
    t = Treap(seed=2)
    ref: set[int] = set()
    for k in insert_keys:
        t.insert(k)
        ref.add(k)
    for k in delete_keys:
        assert t.delete(k) == (k in ref)
        ref.discard(k)
        t.check_invariants()
    assert list(t) == sorted(ref)


@given(key_sets, st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_treap_split_partitions(keys, pivot):
    t = Treap(seed=3)
    for k in keys:
        t.insert(k)
    lo, hi = t.split(pivot)
    lo.check_invariants()
    hi.check_invariants()
    assert all(k < pivot for k in lo)
    assert all(k >= pivot for k in hi)
    assert sorted(set(keys)) == sorted(list(lo) + list(hi))


@given(key_sets, st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_treap_split_then_join_roundtrips(keys, pivot):
    t = Treap(seed=4)
    for k in keys:
        t.insert(k)
    expect = sorted(set(keys))
    lo, hi = t.split(pivot)
    joined = lo.join(hi)
    joined.check_invariants()
    assert list(joined) == expect


@given(key_sets, key_sets)
@settings(max_examples=60, deadline=None)
def test_treap_set_algebra(a_keys, b_keys):
    a, b = Treap(seed=5), Treap(seed=6)
    for k in a_keys:
        a.insert(k)
    for k in b_keys:
        b.insert(k)
    sa, sb = set(a_keys), set(b_keys)
    assert list(a.intersection(b)) == sorted(sa & sb)
    assert list(a.difference(b)) == sorted(sa - sb)
    u = a.union(b)
    u.check_invariants()
    assert list(u) == sorted(sa | sb)


# ---------------------------------------------------------------------------
# Dynamic graph / hybrid adjacency properties
# ---------------------------------------------------------------------------
ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "del"]),
        st.integers(0, 11),
        st.integers(0, 11),
    ),
    min_size=0,
    max_size=80,
)


@given(ops, st.booleans())
@settings(max_examples=60, deadline=None)
def test_dynamic_graph_matches_reference(operations, sorted_adj):
    dyn = DynamicGraph(12, sorted_adjacency=sorted_adj)
    ref: set[frozenset] = set()
    for op, u, v in operations:
        if u == v:
            continue
        key = frozenset((u, v))
        if op == "add":
            assert dyn.add_edge(u, v) == (key not in ref)
            ref.add(key)
        else:
            assert dyn.delete_edge(u, v) == (key in ref)
            ref.discard(key)
    assert dyn.n_edges == len(ref)
    for u in range(12):
        expect = sorted(
            next(iter(k - {u})) for k in ref if u in k
        )
        assert sorted(dyn.neighbors(u).tolist()) == expect


@given(ops)
@settings(max_examples=60, deadline=None)
# A promoted hub (0) beside an array vertex (6) with a neighbour (7)
# the hub lacks: the mixed common_neighbors path must filter it out.
@example([("add", 0, v) for v in (1, 2, 3, 4)] + [("add", 6, 1), ("add", 6, 7)])
def test_hybrid_adjacency_matches_reference(operations):
    hyb = HybridAdjacency(12, degree_threshold=3)  # force promotions
    ref: set[frozenset] = set()
    for op, u, v in operations:
        if u == v:
            continue
        key = frozenset((u, v))
        if op == "add":
            assert hyb.add_edge(u, v) == (key not in ref)
            ref.add(key)
        else:
            assert hyb.delete_edge(u, v) == (key in ref)
            ref.discard(key)
    assert hyb.n_edges == len(ref)
    adj = [{next(iter(k - {u})) for k in ref if u in k} for u in range(12)]
    for u in range(12):
        assert hyb.neighbors(u).tolist() == sorted(adj[u])
        for v in range(12):
            assert hyb.common_neighbors(u, v).tolist() == sorted(adj[u] & adj[v])


@given(ops)
@settings(max_examples=40, deadline=None)
def test_dynamic_to_csr_roundtrip(operations):
    dyn = DynamicGraph(12)
    for op, u, v in operations:
        if u == v:
            continue
        if op == "add":
            dyn.add_edge(u, v)
        else:
            dyn.delete_edge(u, v)
    g = dyn.to_csr()
    assert g.n_edges == dyn.n_edges
    for u in range(12):
        assert g.neighbors(u).tolist() == sorted(dyn.neighbors(u).tolist())


@given(ops, st.booleans(), st.integers(0, 14), st.booleans())
@settings(max_examples=80, deadline=None)
def test_dynamic_to_csr_matches_loop_oracle(operations, sorted_adj, n, weighted):
    """The one-concatenate snapshot is bit-identical to the per-vertex
    loop it replaced: n = 0, isolated vertices (n > 12 leaves some),
    weighted edges, both adjacency modes, any add/delete history."""
    from repro.qa.oracles import dynamic_to_csr_loop

    dyn = DynamicGraph(n, sorted_adjacency=sorted_adj)
    for i, (op, u, v) in enumerate(operations):
        if u == v or u >= n or v >= n:
            continue
        if op == "add":
            dyn.add_edge(u, v, 0.5 + i if weighted else 1.0)
        else:
            dyn.delete_edge(u, v)
    got, want = dyn.to_csr(), dynamic_to_csr_loop(dyn)
    assert got.n_edges == want.n_edges == dyn.n_edges
    for name in ("offsets", "targets", "arc_edge_ids", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@given(ops)
@settings(max_examples=40, deadline=None)
def test_dynamic_delete_then_reinsert_roundtrips(operations):
    """Deleting every edge and reinserting it restores the same CSR."""
    dyn = DynamicGraph(12)
    for op, u, v in operations:
        if u == v:
            continue
        (dyn.add_edge if op == "add" else dyn.delete_edge)(u, v)
    before = dyn.to_csr()
    edges = list(zip(*[a.tolist() for a in before.edge_endpoints()]))
    for u, v in edges:
        assert dyn.delete_edge(u, v)
    assert dyn.n_edges == 0
    for u, v in reversed(edges):
        assert dyn.add_edge(u, v)
    after = dyn.to_csr()
    assert np.array_equal(before.offsets, after.offsets)
    assert np.array_equal(before.targets, after.targets)
    assert validate(dyn) == []


@given(key_sets, st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_hybrid_threshold_crossing_under_churn(keys, threshold):
    """One vertex's degree repeatedly crosses the promote/demote
    threshold; representation state and structure must stay consistent."""
    hyb = HybridAdjacency(202, degree_threshold=threshold)
    ref: set[int] = set()
    for k in keys:
        hyb.add_edge(201, k)
        ref.add(k)
        assert hyb.is_promoted(201) == (len(ref) > threshold)
    assert validate(hyb) == []
    # Drain back below the hysteresis point, then refill.
    for k in sorted(ref):
        hyb.delete_edge(201, k)
    assert hyb.degree(201) == 0
    assert not hyb.is_promoted(201)
    for k in sorted(ref):
        hyb.add_edge(201, k)
    assert hyb.is_promoted(201) == (len(ref) > threshold)
    assert sorted(hyb.neighbors(201).tolist()) == sorted(ref)
    assert validate(hyb) == []


@given(key_sets, key_sets, st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_treap_union_of_split_halves(a_keys, b_keys, pivot):
    """union(split(a) parts, b) behaves exactly like set union — the
    structural operations must not lose or duplicate keys."""
    a, b = Treap(seed=7), Treap(seed=8)
    for k in a_keys:
        a.insert(k)
    for k in b_keys:
        b.insert(k)
    lo, hi = a.split(pivot)
    u = lo.union(b).union(hi)
    u.check_invariants()
    assert list(u) == sorted(set(a_keys) | set(b_keys))
    assert u.keys_array().tolist() == list(u)
    assert validate(u) == []
