"""Segment primitives, graph contraction and the §1.2c fast paths.

Covers the edge-centric primitive library (`repro.kernels.segments`),
the `contract` coarsening kernel's exact-modularity contract, the
vectorized triangle-counting path against its per-edge reference, and
the multilevel pLA mode's determinism/monotonicity guarantees.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.community import modularity, pla
from repro.community.result import ClusteringResult
from repro.datasets.karate import karate_club
from repro.graph import contract, from_edge_array
from repro.kernels.segments import (
    boundary_vertices,
    compact_adjacency,
    distinct,
    group_offsets,
    grouped_label_weights,
    intersect_sorted_segments,
    pair_order,
    segment_argmax,
    segment_maxes,
    segment_sums,
)
from repro.metrics.clustering import (
    local_clustering_coefficients,
    triangle_counts,
)
from repro.qa.oracles import triangle_counts_arcloop


# ---------------------------------------------------------------------------
# Segmented reductions
# ---------------------------------------------------------------------------
def test_segment_sums_with_empty_segments():
    values = np.asarray([1.0, 2.0, 3.0, 4.0])
    # segments: [], [1,2], [], [3], [4], []
    offsets = np.asarray([0, 0, 2, 2, 3, 4, 4])
    np.testing.assert_allclose(
        segment_sums(values, offsets), [0.0, 3.0, 0.0, 3.0, 4.0, 0.0]
    )


def test_segment_sums_all_empty():
    out = segment_sums(np.empty(0), np.zeros(4, dtype=np.int64))
    np.testing.assert_allclose(out, np.zeros(3))


def test_segment_maxes_and_argmax():
    values = np.asarray([5.0, 1.0, 7.0, 7.0, 2.0])
    offsets = np.asarray([0, 2, 2, 5])
    np.testing.assert_allclose(
        segment_maxes(values, offsets), [5.0, -np.inf, 7.0]
    )
    # argmax returns global indices, first occurrence on ties, -1 empty
    np.testing.assert_array_equal(
        segment_argmax(values, offsets), [0, -1, 2]
    )


@given(
    st.lists(st.floats(-100, 100), min_size=0, max_size=40),
    st.lists(st.integers(0, 8), min_size=1, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_segment_reductions_match_python(values, seg_lengths):
    values = np.asarray(values, dtype=np.float64)
    total = int(values.shape[0])
    # clip the segment plan to exactly cover `values`
    lengths = []
    left = total
    for s in seg_lengths:
        lengths.append(min(s, left))
        left -= lengths[-1]
    lengths.append(left)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    sums = segment_sums(values, offsets)
    arg = segment_argmax(values, offsets)
    for i in range(len(lengths)):
        seg = values[offsets[i]:offsets[i + 1]]
        assert sums[i] == pytest.approx(seg.sum() if seg.size else 0.0)
        if seg.size:
            assert arg[i] == offsets[i] + int(np.argmax(seg))
        else:
            assert arg[i] == -1


def test_group_offsets_multi_key():
    a = np.asarray([0, 0, 0, 1, 1, 2])
    b = np.asarray([3, 3, 4, 4, 4, 4])
    np.testing.assert_array_equal(group_offsets(a, b), [0, 2, 3, 5, 6])


def test_grouped_label_weights_matches_dict():
    rng = np.random.default_rng(3)
    src = rng.integers(0, 6, 50)
    lab = rng.integers(0, 4, 50)
    w = rng.random(50)
    gsrc, glab, gsum = grouped_label_weights(src, lab, w)
    expect: dict[tuple[int, int], float] = {}
    for s, l, x in zip(src.tolist(), lab.tolist(), w.tolist()):
        expect[(s, l)] = expect.get((s, l), 0.0) + x
    got = dict(zip(zip(gsrc.tolist(), glab.tolist()), gsum.tolist()))
    assert sorted(got) == sorted(expect)
    for k in expect:
        assert got[k] == pytest.approx(expect[k])
    # sorted by (src, label)
    assert np.array_equal(np.lexsort((glab, gsrc)), np.arange(gsrc.shape[0]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(0, 9)), max_size=60
    ),
    st.integers(1, 10),
    st.sampled_from([np.int64, np.int32]),
)
def test_pair_order_is_the_lexsort_permutation(pairs, n_minor, dtype):
    """Unsorted majors, duplicate pairs, empty input, ``n_minor = 1``
    and int32 inputs all yield exactly ``np.lexsort((minor, major))``;
    ``distinct`` of the same keys is ``np.unique``'s, values and dtype."""
    major = np.asarray([p[0] for p in pairs], dtype=dtype)
    minor = np.asarray([p[1] % n_minor for p in pairs], dtype=dtype)
    got = pair_order(major, minor, n_minor)
    assert np.array_equal(got, np.lexsort((minor, major)))
    # the permutation depends only on the pairs' order, not on n_minor
    assert np.array_equal(got, pair_order(major, minor, n_minor + 7))
    # empty, unsorted, sorted, reversed and duplicate-heavy (minor < 10)
    for keys in (major[:0], major, np.sort(major), np.sort(major)[::-1], minor):
        want = np.unique(keys)
        assert distinct(keys).dtype == want.dtype
        assert np.array_equal(distinct(keys), want)


def test_pair_order_refuses_an_overflowing_key():
    big = np.asarray([1 << 40, 5], dtype=np.int64)
    minor = np.asarray([0, 1], dtype=np.int64)
    assert pair_order(big, minor, 1 << 20).tolist() == [1, 0]
    for major in (big, -big):
        with pytest.raises(ValueError, match="overflows int64"):
            pair_order(major, minor, 1 << 23)
    # nothing to sort, nothing to overflow
    assert pair_order(np.empty(0, dtype=np.int64), minor[:0], 1 << 62).shape == (0,)


def test_boundary_vertices_mask():
    g = from_edge_array(
        4,
        np.asarray([0, 1, 2]),
        np.asarray([1, 2, 3]),
        directed=False,
    )
    labels = np.asarray([0, 0, 1, 1])
    mask = boundary_vertices(
        g.arc_sources(), g.targets, labels, g.n_vertices
    )
    np.testing.assert_array_equal(mask, [False, True, True, False])


# ---------------------------------------------------------------------------
# Batched sorted intersection
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_intersect_sorted_segments_matches_intersect1d(seed):
    rng = np.random.default_rng(seed)
    n, m = 30, 120
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    g = from_edge_array(n, src[keep], dst[keep], directed=False)
    u, v = g.edge_endpoints()
    counts, common, pair_ids = intersect_sorted_segments(
        g.offsets, g.targets, u, v
    )
    for i in range(u.shape[0]):
        ref = np.intersect1d(
            g.neighbors(int(u[i])), g.neighbors(int(v[i])),
            assume_unique=True,
        )
        assert counts[i] == ref.shape[0]
        np.testing.assert_array_equal(np.sort(common[pair_ids == i]), ref)


def test_intersect_empty_inputs():
    counts, common, pair_ids = intersect_sorted_segments(
        np.asarray([0, 0, 0]), np.empty(0, dtype=np.int64),
        np.asarray([0]), np.asarray([1]),
    )
    assert counts.tolist() == [0]
    assert common.shape[0] == 0 and pair_ids.shape[0] == 0


def test_compact_adjacency_preserves_order():
    g = from_edge_array(
        4,
        np.asarray([0, 0, 1, 2]),
        np.asarray([1, 2, 2, 3]),
        directed=False,
    )
    keep = np.ones(g.n_arcs, dtype=bool)
    offs, tgts, w = compact_adjacency(g.offsets, g.targets, keep, 4)
    np.testing.assert_array_equal(offs, g.offsets)
    np.testing.assert_array_equal(tgts, g.targets)
    # drop every arc of vertex 0
    keep2 = g.arc_sources() != 0
    offs2, tgts2, _ = compact_adjacency(g.offsets, g.targets, keep2, 4)
    assert offs2[1] - offs2[0] == 0
    np.testing.assert_array_equal(tgts2, g.targets[keep2])


# ---------------------------------------------------------------------------
# contract(): exact modularity preservation
# ---------------------------------------------------------------------------
edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)),
    min_size=1,
    max_size=50,
)
label_arrays = st.lists(st.integers(0, 4), min_size=12, max_size=12)


@given(edge_lists, label_arrays)
@settings(max_examples=80, deadline=None)
def test_contract_preserves_modularity_exactly(edges, labels):
    src = np.asarray([e[0] for e in edges], dtype=np.int64)
    dst = np.asarray([e[1] for e in edges], dtype=np.int64)
    g = from_edge_array(12, src, dst, directed=False)
    labels = np.asarray(labels, dtype=np.int64)
    q_fine = modularity(g, labels)
    coarse, vmap = contract(g, labels)
    q_coarse = modularity(coarse, np.arange(coarse.n_vertices))
    # self-loops carry intra-cluster weight, so the invariance is exact
    assert q_coarse == pytest.approx(q_fine, abs=1e-12)


@given(edge_lists, label_arrays)
@settings(max_examples=60, deadline=None)
def test_contract_vertex_map_equivalence(edges, labels):
    src = np.asarray([e[0] for e in edges], dtype=np.int64)
    dst = np.asarray([e[1] for e in edges], dtype=np.int64)
    g = from_edge_array(12, src, dst, directed=False)
    labels = np.asarray(labels, dtype=np.int64)
    coarse, vmap = contract(g, labels)
    # dense contiguous coarse ids
    assert vmap.shape == (12,)
    assert coarse.n_vertices == int(np.unique(labels).shape[0])
    assert sorted(np.unique(vmap).tolist()) == list(range(coarse.n_vertices))
    # vmap groups exactly the fine label partition
    assert np.array_equal(
        vmap, np.unique(labels, return_inverse=True)[1]
    )
    # strengths aggregate: coarse strength = summed fine strengths
    fine_strength = np.zeros(12)
    u, v = g.edge_endpoints()
    w = g.edge_weights()
    np.add.at(fine_strength, u, w)
    np.add.at(fine_strength, v, w)
    coarse_strength = np.zeros(coarse.n_vertices)
    cu, cv = coarse.edge_endpoints()
    cw = coarse.edge_weights()
    np.add.at(coarse_strength, cu, cw)
    np.add.at(coarse_strength, cv, cw)
    np.testing.assert_allclose(
        coarse_strength,
        np.bincount(vmap, weights=fine_strength, minlength=coarse.n_vertices),
    )


def test_contract_round_trips_on_fuzz_corpus():
    from repro.qa.differential import corpus

    rng = np.random.default_rng(0)
    for item in corpus(0, 20):
        if item.n == 0:
            continue
        g = item.csr()
        labels = rng.integers(0, max(1, item.n // 2), g.n_vertices)
        coarse, vmap = contract(g, labels)
        assert coarse.n_vertices == int(np.unique(labels).shape[0])
        # same-label vertices map together, different labels apart
        assert np.array_equal(
            vmap, np.unique(labels, return_inverse=True)[1]
        )
        assert float(coarse.edge_weights().sum()) == pytest.approx(
            float(g.edge_weights().sum())
        )
        q1 = modularity(g, labels)
        q2 = modularity(coarse, np.arange(coarse.n_vertices))
        assert q2 == pytest.approx(q1, abs=1e-12)


# ---------------------------------------------------------------------------
# Vectorized triangle counting vs the per-edge reference
# ---------------------------------------------------------------------------
@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_triangle_counts_match_arcloop(edges):
    src = np.asarray([e[0] for e in edges], dtype=np.int64)
    dst = np.asarray([e[1] for e in edges], dtype=np.int64)
    g = from_edge_array(12, src, dst, directed=False)
    np.testing.assert_array_equal(
        triangle_counts(g), triangle_counts_arcloop(g)
    )


def test_triangle_counts_match_arcloop_on_view():
    g = karate_club()
    view = g.view()
    rng = np.random.default_rng(5)
    for e in rng.choice(g.n_edges, g.n_edges // 3, replace=False):
        view.deactivate(int(e))
    np.testing.assert_array_equal(
        triangle_counts(view), triangle_counts_arcloop(view)
    )
    # the lcc wrapper goes through the vectorized path too
    lcc = local_clustering_coefficients(view)
    assert lcc.shape == (g.n_vertices,)


# ---------------------------------------------------------------------------
# Multilevel pLA
# ---------------------------------------------------------------------------
def test_multilevel_pla_karate():
    g = karate_club()
    res = pla(g, multilevel=True)
    assert isinstance(res, ClusteringResult)
    assert res.extras["multilevel"] is True
    assert res.extras["n_levels"] >= 1
    # reported modularity is the fine-graph modularity of the labels
    assert res.modularity == pytest.approx(modularity(g, res.labels))
    # multilevel should find the well-known good range on karate
    assert res.modularity > 0.38


def test_multilevel_pla_deterministic():
    g = karate_club()
    a = pla(g, multilevel=True)
    b = pla(g, multilevel=True)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.modularity == b.modularity


def test_multilevel_pla_at_least_single_level_on_karate():
    g = karate_club()
    q_single = pla(g).modularity
    q_multi = pla(g, multilevel=True).modularity
    assert q_multi + 1e-9 >= q_single


def test_multilevel_pla_spans():
    from repro.obs.tracer import Tracer
    from repro.parallel.runtime import ParallelContext

    g = karate_club()
    tr = Tracer()
    ctx = ParallelContext(1, backend="serial", trace=tr)
    pla(g, multilevel=True, ctx=ctx)
    ctx.close()
    assert tr.root.find("coarsen")
    assert tr.root.find("sweep")
    assert tr.root.find("contract-level")


def test_multilevel_pla_isolated_vertices():
    g = from_edge_array(
        5, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
        directed=False,
    )
    res = pla(g, multilevel=True)
    assert res.modularity == 0.0
    assert res.labels.shape == (5,)


# ---------------------------------------------------------------------------
# Lazy local-metric table
# ---------------------------------------------------------------------------
def test_pla_weight_metric_never_computes_clustering(monkeypatch):
    import importlib

    pla_mod = importlib.import_module("repro.community.pla")
    calls = {"n": 0}
    real = pla_mod.local_clustering_coefficients

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(
        pla_mod, "local_clustering_coefficients", counting
    )
    g = karate_club()
    pla(g, local_metric="weight")
    pla(g, local_metric="degree")
    pla(g, multilevel=True)
    assert calls["n"] == 0
    pla(g, local_metric="clustering")
    assert calls["n"] == 1
