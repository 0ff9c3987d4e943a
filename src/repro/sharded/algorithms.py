"""Shard-at-a-time algorithms, bit-identical to the in-core kernels.

Every public function here reproduces its in-core counterpart's output
*exactly* (``np.array_equal`` on integers, equal bits on floats), while
touching only one shard's CSR per worker task plus ``O(n)`` vertex
state at the coordinator:

* :func:`sharded_msbfs` — the in-core word formulation with each
  level's arc pass as one superstep: shards return ``(vertex, lane
  word)`` pairs for the frontier they were shipped, the coordinator
  claims them with the in-core push step (OR per vertex, mask with its
  ``seen`` words) or, on a pull level, where the pairs are disjoint
  owned rows, with the in-core dense pull step; the new bits are
  exactly the in-core level's, so the distance plane and level count
  match bit for bit.
* :func:`sharded_connected_components` — min-label hook supersteps plus
  coordinator pointer compression; converges to the min-vertex-id
  labels the in-core Shiloach–Vishkin kernel is specified to return.
* :func:`sharded_closeness` — sharded traversals + the in-core
  reduction/assembly arithmetic verbatim (unweighted graphs only, as
  in-core weighted closeness switches to per-source Dijkstra).
* :func:`sharded_pla` — the multilevel Louvain loop of
  ``community.pla._multilevel_pla`` with the level-0 (fine-graph)
  sweeps, modularity guard, contraction and final refinement running
  out of core.  Exactness hinges on three facts: per-vertex best-move
  gains are a pure function of that vertex's own arc list (present in
  full on its owning shard, in global CSR arc order); the dense local
  label remap is monotone, so the ``pair_order`` grouping permutation
  matches the global one; and the chunked edge-stream modularity
  preserves the in-core ``bincount`` element-order accumulation
  exactly.  Weighted-graph contraction materializes the coarse edge
  list in core (float merge order cannot be chunked without changing
  the sums) — documented fallback; the unweighted path streams integer
  counts.

Every algorithm checkpoints through the driver's per-tag record log
(DESIGN §13): after a superstep it hands
:meth:`~repro.sharded.bsp.BSPDriver.maybe_checkpoint` only what that
superstep wrote — msbfs the frontier a level claimed, components the
labels a round lowered, closeness a finished batch's scores, pLA a
sweep's movers and phase scalars — and on resume folds the records
:meth:`~repro.sharded.bsp.BSPDriver.resume` returns back into its
state, in order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.centrality.closeness import _lane_scores, _lane_totals
from repro.community.pla import _apply_guarded_moves, _best_moves, _coarsen
from repro.community.result import ClusteringResult
from repro.errors import ClusteringError, GraphStructureError
from repro.graph.builder import from_edge_array
from repro.graph.csr import VERTEX_DTYPE, Graph
from repro.kernels.bfs import (
    MSBFSResult,
    UNREACHED,
    _PULL_ARC_RATIO,
    _WORD_LANES,
    _claim_dense,
    _claim_new,
    _or_by_target,
    _scatter_new_lanes,
    _seed_lane_words,
    source_batches,
)
from repro.kernels.segments import chunk_bounds, grouped_label_weights
from repro.sharded.bsp import BSPDriver
from repro.sharded.shards import ShardSet, _cached_shard, concat_ranges

__all__ = [
    "sharded_msbfs",
    "sharded_closeness",
    "sharded_connected_components",
    "sharded_modularity",
    "sharded_contract",
    "sharded_pla",
]

#: Edges per chunk for the streamed modularity / contraction passes.
DEFAULT_CHUNK_EDGES = 1 << 20

#: Arcs per block for worker-side neighbor expansions.  Workers never
#: materialize a full-shard arc expansion — they walk the CSR in blocks
#: of ~this many arcs, keeping transients O(ARC_CHUNK) instead of
#: O(shard arcs).  Results are exact: blocks are row-aligned, per-row
#: reductions are row-independent and per-target ORs re-reduce exactly.
ARC_CHUNK = 1 << 21


def _reduce_over_rows(
    ufunc, local_vals, sh, out: np.ndarray, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """Fold ``ufunc`` over each owned row's neighbor values into ``out``
    (``local_vals`` is indexed by local id; rows without arcs keep
    ``out[r]``), walking the CSR in ``ARC_CHUNK`` blocks.  With ``rows``
    (ascending owned row ids) only those rows are folded."""
    offs, tg = sh.offsets, sh.targets
    starts = offs[:-1] if rows is None else offs.take(rows)
    deg = (offs[1:] if rows is None else offs.take(rows + 1)) - starts
    bounds = chunk_bounds(deg, ARC_CHUNK)
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        nz = b0 + np.flatnonzero(deg[b0:b1])
        if not nz.shape[0]:
            continue
        if rows is None:  # whole rows are one contiguous arc range
            arcs, heads, dest = tg[offs[b0]:offs[b1]], offs[nz] - offs[b0], nz
        else:
            lens = deg.take(nz)
            arcs = tg.take(concat_ranges(starts.take(nz), lens))
            heads, dest = np.cumsum(lens) - lens, rows.take(nz)
        out[dest] = ufunc(out[dest], ufunc.reduceat(local_vals.take(arcs), heads))
    return out


def _resolve_driver(
    shard_set: ShardSet, driver: Optional[BSPDriver], ctx
) -> BSPDriver:
    if driver is not None:
        return driver
    return BSPDriver(shard_set, ctx=ctx)


# ---------------------------------------------------------------------------
# msbfs
# ---------------------------------------------------------------------------
def _msbfs_level_worker(task):
    """One (shard, level) step of one lane word, as in
    ``kernels.bfs._msbfs_word``: returns ``(global vertices, words)``,
    at most one pair per vertex.

    Push (``rows`` = owned frontier rows, ``words`` their new-lane
    words): each word travels along its row's arcs and is OR-ed per
    target.  Pull (``rows is None``, ``words`` = the dense global
    frontier, then ``unfinished`` = the owned rows still missing a lane,
    or ``None`` for all of them): those rows OR the frontier words of
    their neighbors.  Neither side sees ``seen`` — the coordinator masks
    the merged words — so on an undirected graph both name the same
    newly reached set.
    """
    path, index, rows, words, *unfinished = task
    sh = _cached_shard(path, index)
    offs, tg, l2g = sh.offsets, sh.targets, sh.local_to_global
    if rows is None:
        got = _reduce_over_rows(
            np.bitwise_or, words.take(l2g), sh,
            np.zeros(sh.n_owned, dtype=words.dtype), unfinished[0],
        )
        tgt = got.nonzero()[0]  # owned rows lead the local ids
        return l2g.take(tgt), got.take(tgt)
    deg = offs[rows + 1] - offs[rows]
    bounds = chunk_bounds(deg, ARC_CHUNK)
    blocks = []
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        dg = deg[b0:b1]
        arc_idx = concat_ranges(offs[rows[b0:b1]], dg)
        blocks.append(_or_by_target(tg[arc_idx], words[b0:b1].repeat(dg)))
    tgt, got = (np.concatenate(col) for col in zip(*blocks))
    if len(blocks) > 1:
        tgt, got = _or_by_target(tgt, got)
    return l2g.take(tgt), got


def _unfinished_rows(seen, all_lanes, ids, rows, degs) -> Optional[np.ndarray]:
    """The owned ``rows`` (global ``ids``, ``degs`` arcs each: a shard's
    rows with arcs) whose ``seen`` word still lacks a lane, or ``None``
    (pull every row) when they hold at least half of the shard's arcs."""
    unfinished = seen.take(ids) != all_lanes
    if 2 * int(degs[unfinished].sum()) >= int(degs.sum()):
        return None
    return rows[unfinished]


def sharded_msbfs(
    shard_set: ShardSet,
    sources,
    *,
    max_depth: Optional[int] = None,
    driver: Optional[BSPDriver] = None,
    ctx=None,
    checkpoint_tag: str = "msbfs",
) -> MSBFSResult:
    """Level-synchronous multi-source BFS over a shard set.

    ``kernels.bfs.msbfs``'s word formulation with each level's arc pass
    as one superstep: the coordinator keeps the ``seen`` lane words and
    the sparse frontier ``(verts, words)`` and picks push or pull by the
    in-core rule.  A push level claims the shards' merged ``(vertex,
    word)`` pairs with the in-core push step; a pull level's results are
    disjoint owned rows, scattered into one dense word array and claimed
    with the in-core pull step.  ``result.distances`` and ``n_levels``
    are bit-identical to ``kernels.bfs.msbfs`` on the stitched graph.

    A level's checkpoint record is what it claimed: ``(lo, level,
    verts, words)``.  With a resume-armed driver checkpointer the
    records are replayed onto the seeded words — ``seen`` and the
    distance plane are exactly the claims so far — and the traversal
    continues from the last record's frontier, so re-running the level
    the crash interrupted is exact.
    """
    ss = shard_set
    drv = _resolve_driver(ss, driver, ctx)
    n = ss.n_vertices
    srcs = np.asarray(list(sources), dtype=np.int64)
    k = srcs.shape[0]
    if k and (srcs.min() < 0 or srcs.max() >= n):
        bad = srcs[(srcs < 0) | (srcs >= n)][0]
        raise GraphStructureError(f"source {int(bad)} out of range [0, {n})")
    dist = np.full((k, n), UNREACHED, dtype=np.int32)
    if k == 0:
        return MSBFSResult(srcs, dist, 0)
    degs_all = ss.degrees()
    owner, local_index = ss.owner, ss.local_index
    active = [s for s in range(ss.k) if ss.shard_meta(s)["n_owned"]]
    paths = {s: str(ss.shard_path(s)) for s in active}
    with_arcs = {}  # shard -> its owned rows with arcs: (ids, rows, degs)
    for s in active:
        degs = degs_all.take(ss.owned(s))
        rows = np.flatnonzero(degs)
        with_arcs[s] = (ss.owned(s).take(rows), rows, degs.take(rows))
    tag = checkpoint_tag
    records = drv.resume(tag, {"n": n, "srcs": srcs, "max_depth": max_depth}) or []
    resume_lo = records[-1][0] if records else 0
    n_levels = 0
    for lo in range(0, k, _WORD_LANES):
        rows = dist[lo : lo + _WORD_LANES]
        dist_flat = rows.reshape(-1)
        seen, verts, words = _seed_lane_words(
            srcs[lo : lo + _WORD_LANES], dist_flat, n
        )
        all_lanes = seen.dtype.type((1 << rows.shape[0]) - 1)
        level = 0
        for _, level, verts, words in (r for r in records if r[0] == lo):
            seen[verts] |= words
            _scatter_new_lanes(dist_flat, n, verts, words, level)
        if lo < resume_lo:  # finished before the crash: replayed, not re-run
            n_levels = max(n_levels, level)
            continue
        while verts.shape[0] and (max_depth is None or level < max_depth):
            f_arcs = int(degs_all.take(verts).sum())
            pull = f_arcs * _PULL_ARC_RATIO > ss.n_arcs
            if pull:
                # Every payload shares ONE reference to the dense
                # frontier — O(n) words resident, not O(n + total halo).
                # A row with every lane seen cannot claim anything, so
                # a shard whose unfinished rows hold under half its
                # arcs pulls over those rows only.
                frontier = np.zeros(n, dtype=words.dtype)
                frontier[verts] = words
                payloads = [
                    (paths[s], s, None, frontier,
                     _unfinished_rows(seen, all_lanes, *with_arcs[s]))
                    for s in active
                ]
            else:
                ow = owner.take(verts)
                payloads = []
                for s in active:
                    mine = (ow == s).nonzero()[0]
                    if mine.shape[0]:
                        payloads.append((
                            paths[s], s,
                            local_index.take(verts.take(mine)),
                            words.take(mine),
                        ))
            results = drv.superstep(
                f"msbfs:level{level}", _msbfs_level_worker, payloads
            )
            del payloads
            if pull:
                fresh = np.zeros(n, dtype=words.dtype)
                for tgt, got in results:
                    fresh[tgt] = got  # owned rows: disjoint across shards
                del results
                verts, words = _claim_dense(seen, fresh, rows, level + 1)
            else:
                tgt, got = (np.concatenate(col) for col in zip(*results))
                del results  # free per-shard copies before the merge sort
                verts, words = _claim_new(seen, tgt, got)
                _scatter_new_lanes(dist_flat, n, verts, words, level + 1)
            if verts.shape[0] == 0:
                break
            level += 1
            drv.maybe_checkpoint(tag, (lo, level, verts, words))
        n_levels = max(n_levels, level)
    drv.clear_checkpoint(tag)
    return MSBFSResult(srcs, dist, n_levels)


# ---------------------------------------------------------------------------
# closeness
# ---------------------------------------------------------------------------
def sharded_closeness(
    shard_set: ShardSet,
    *,
    sources: Optional[Sequence[int]] = None,
    wf_improved: bool = True,
    batch_size: Optional[int] = None,
    driver: Optional[BSPDriver] = None,
    ctx=None,
) -> np.ndarray:
    """Closeness centrality over a shard set (unweighted graphs).

    Batches sources exactly like the in-core path and applies the same
    reduction arithmetic, so scores are bit-identical.  Weighted graphs
    use per-source Dijkstra in core — not a shard-at-a-time shape —
    and are rejected here.
    """
    ss = shard_set
    if ss.is_weighted:
        raise GraphStructureError(
            "sharded closeness supports unweighted graphs only "
            "(in-core weighted closeness is per-source Dijkstra)"
        )
    drv = _resolve_driver(ss, driver, ctx)
    n = ss.n_vertices
    if sources is None:
        sources = range(n)
    src_list = list(sources)
    out = np.zeros(n, dtype=np.float64)
    batches = source_batches(src_list, batch_size, n)
    # Resume at batch granularity: a record is one finished batch's
    # index and scores.  The in-flight batch's traversal checkpoints
    # under its own per-batch tag.  The batches are contiguous cuts of
    # the sources, so the sources plus the lanes per batch pin down
    # which batch an index names.
    tag = "closeness"
    records = drv.resume(tag, {
        "n": n, "srcs": np.asarray(src_list, dtype=np.int64),
        "wf_improved": wf_improved,
        "batch_lanes": batches[0].shape[0] if batches else 0,
    }) or []
    for i, scores in records:
        out[batches[i]] = scores
    for i in range(len(records), len(batches)):
        batch = batches[i]
        dist = sharded_msbfs(
            ss, batch, driver=drv, checkpoint_tag=f"{tag}.msbfs{i}"
        ).distances
        scores = _lane_scores(*_lane_totals(dist), n, wf_improved)
        out[batch] = scores
        # Forced: the inner traversal's own checkpoints leave the
        # cadence counter freshly satisfied, but a completed batch is
        # the boundary that lets a resume skip it entirely.
        drv.maybe_checkpoint(tag, (i, scores), force=True)
    drv.clear_checkpoint(tag)
    return out


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------
def _cc_round_worker(task):
    """Per-owned-vertex min over {own label} ∪ {neighbor labels}."""
    path, index, labels_global = task
    sh = _cached_shard(path, index)
    labels_local = labels_global[sh.local_to_global]
    return _reduce_over_rows(
        np.minimum, labels_local, sh, labels_local[: sh.n_owned].copy()
    )


def sharded_connected_components(
    shard_set: ShardSet,
    *,
    driver: Optional[BSPDriver] = None,
    ctx=None,
) -> np.ndarray:
    """Component labels (min vertex id per component) over a shard set.

    Min-label hook supersteps with coordinator pointer compression —
    the same fixpoint the in-core Shiloach–Vishkin kernel returns, so
    labels are bit-identical.  A round's checkpoint record is the
    labels its hook lowered, ``(vertices, new labels)``; replaying one
    re-runs the (deterministic) pointer compression after it.
    """
    ss = shard_set
    drv = _resolve_driver(ss, driver, ctx)
    n = ss.n_vertices
    label = np.arange(n, dtype=np.int64)
    if ss.n_arcs == 0:
        return label
    active = [s for s in range(ss.k) if ss.shard_meta(s)["n_owned"]]
    tag = "components"
    records = drv.resume(tag, {"n": n}) or []
    for verts, vals in records:
        label[verts] = vals
        label = _compress_labels(label)
    round_no = len(records)
    while True:
        # The label snapshot is shared by reference across payloads —
        # it only advances between supersteps (see msbfs note).
        payloads = [(str(ss.shard_path(s)), s, label) for s in active]
        results = drv.superstep(
            f"cc:round{round_no}", _cc_round_worker, payloads
        )
        verts, vals = [], []
        for s, res in zip(active, results):
            owned = ss.owned(s)
            lower = (res < label[owned]).nonzero()[0]
            verts.append(owned.take(lower))
            vals.append(res.take(lower))
            label[verts[-1]] = vals[-1]
        label = _compress_labels(label)
        if not any(v.shape[0] for v in verts):
            break
        round_no += 1
        drv.maybe_checkpoint(tag, (np.concatenate(verts), np.concatenate(vals)))
    drv.clear_checkpoint(tag)
    return label


def _compress_labels(label: np.ndarray) -> np.ndarray:
    """Pointer compression: labels are vertex ids, so ``label[label]``
    jumps every vertex to its current representative's label."""
    while True:
        nxt = label[label]
        if np.array_equal(nxt, label):
            return label
        label = nxt


# ---------------------------------------------------------------------------
# Streamed modularity / contraction over the global edge stream
# ---------------------------------------------------------------------------
def sharded_modularity(
    shard_set: ShardSet,
    labels: np.ndarray,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> float:
    """Modularity of a partition, streamed over the edge stream.

    ``np.bincount`` adds one element at a time in index order, so
    seeding each chunk's count with the running per-cluster sums (one
    leading element per cluster) carries the accumulator across
    edge-id-ordered chunks and reproduces the in-core single-pass
    accumulation of :func:`repro.community.modularity.modularity` —
    and therefore its float results — exactly.  ``total_w`` comes from
    the manifest's hex-exact total.
    """
    ss = shard_set
    labels = np.asarray(labels)
    if labels.shape[0] != ss.n_vertices:
        raise ClusteringError(
            f"labels length {labels.shape[0]} != n_vertices {ss.n_vertices}"
        )
    if ss.n_edges == 0:
        return 0.0
    _, dense = np.unique(labels, return_inverse=True)
    k = int(dense.max()) + 1 if dense.shape[0] else 0
    total_w = ss.total_weight
    clusters = np.arange(k, dtype=dense.dtype)
    intra = np.zeros(k, dtype=np.float64)
    strength = np.zeros(k, dtype=np.float64)
    u_r, v_r, w_r = ss.edge_readers()
    m = ss.n_edges
    for start in range(0, m, chunk_edges):
        stop = min(m, start + chunk_edges)
        du = dense[u_r.read(start, stop)]
        dv = dense[v_r.read(start, stop)]
        w = (
            np.ones(stop - start, dtype=np.float64)
            if w_r is None
            else w_r.read(start, stop)
        )
        same = du == dv
        intra = np.bincount(
            np.concatenate([clusters, du[same]]),
            weights=np.concatenate([intra, w[same]]),
        )
        strength = np.bincount(
            np.concatenate([clusters, du, dv]),
            weights=np.concatenate([strength, w, w]),
        )
    q = intra.sum() / total_w - float(((strength / (2.0 * total_w)) ** 2).sum())
    return float(q)


def sharded_contract(
    shard_set: ShardSet,
    labels: np.ndarray,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> tuple[Graph, np.ndarray]:
    """Contract the sharded graph by ``labels`` into an in-core coarse
    graph, exactly matching :func:`repro.graph.builder.contract`.

    Unweighted graphs stream integer multi-edge counts chunk by chunk
    (integer addition is association-free, so any chunking is exact).
    Weighted graphs materialize the edge stream: the in-core merge sums
    weights in stable-sorted order and float addition is not
    reassociable, so this path trades the O(m) bound for exactness.
    """
    ss = shard_set
    _, vertex_map = np.unique(np.asarray(labels), return_inverse=True)
    vertex_map = vertex_map.astype(VERTEX_DTYPE)
    k = int(vertex_map.max()) + 1 if vertex_map.shape[0] else 0
    m = ss.n_edges
    if m == 0:
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        return (
            from_edge_array(k, empty, empty, directed=False, dedupe=False),
            vertex_map,
        )
    if ss.is_weighted:
        u, v, w = ss.edge_stream()
        cu, cv = vertex_map[np.asarray(u)], vertex_map[np.asarray(v)]
        lo, hi, merged_w = grouped_label_weights(
            np.minimum(cu, cv), np.maximum(cu, cv), np.asarray(w)
        )
        coarse = from_edge_array(
            k, lo, hi, weights=merged_w,
            directed=False, dedupe=False, drop_self_loops=False,
        )
        return coarse, vertex_map
    u_r, v_r, _ = ss.edge_readers()
    keys_acc = np.empty(0, dtype=np.int64)
    counts_acc = np.empty(0, dtype=np.int64)
    for start in range(0, m, chunk_edges):
        stop = min(m, start + chunk_edges)
        cu = vertex_map[u_r.read(start, stop)]
        cv = vertex_map[v_r.read(start, stop)]
        lo = np.minimum(cu, cv)
        hi = np.maximum(cu, cv)
        key = lo * k + hi
        uk, cnt = np.unique(key, return_counts=True)
        if keys_acc.shape[0] == 0:
            keys_acc, counts_acc = uk, cnt.astype(np.int64)
        else:
            merged = np.union1d(keys_acc, uk)
            mc = np.zeros(merged.shape[0], dtype=np.int64)
            mc[np.searchsorted(merged, keys_acc)] += counts_acc
            mc[np.searchsorted(merged, uk)] += cnt
            keys_acc, counts_acc = merged, mc
    lo_u = (keys_acc // k).astype(VERTEX_DTYPE)
    hi_u = (keys_acc - (keys_acc // k) * k).astype(VERTEX_DTYPE)
    coarse = from_edge_array(
        k, lo_u, hi_u, weights=counts_acc.astype(np.float64),
        directed=False, dedupe=False, drop_self_loops=False,
    )
    return coarse, vertex_map


# ---------------------------------------------------------------------------
# pLA (multilevel)
# ---------------------------------------------------------------------------
def _pla_strength_worker(task):
    """Vertex strengths of this shard's owned rows (self-loops count)."""
    path, index = task
    sh = _cached_shard(path, index)
    offs = sh.offsets
    deg = offs[1:] - offs[:-1]
    src_l = np.repeat(np.arange(sh.n_owned, dtype=np.int64), deg)
    w_l = (
        np.ones(sh.n_arcs, dtype=np.float64)
        if sh.weights is None
        else np.asarray(sh.weights, dtype=np.float64)
    )
    return np.bincount(src_l, weights=w_l, minlength=sh.n_owned)


def _pla_sweep_worker(task):
    """Best-move rows for this shard's owned vertices.

    Runs ``_best_moves`` on the shard's loopless arcs with a dense
    local label remap.  The remap is monotone (sorted-unique), so the
    ``pair_order`` grouping permutation — which depends only on the
    order of the (vertex, label) pairs — and hence every float
    accumulation order match the global in-core scan.
    """
    path, index, labels_global, strength_global, s_global, big_w = task
    sh = _cached_shard(path, index)
    # Derive the shard-local views from the shared global snapshots
    # (labels / strengths / community strengths advance only between
    # supersteps, so sharing them by reference is safe).
    lab_l = labels_global[sh.local_to_global]
    present, lab_dense = np.unique(lab_l, return_inverse=True)
    lab_dense = lab_dense.astype(np.int64)
    s_present = s_global[present]
    strength_own = strength_global[sh.owned]
    offs = sh.offsets
    deg = offs[1:] - offs[:-1]
    src_l = np.repeat(np.arange(sh.n_owned, dtype=np.int64), deg)
    tgt_l = np.asarray(sh.targets, dtype=np.int64)
    w_l = (
        np.ones(tgt_l.shape[0], dtype=np.float64)
        if sh.weights is None
        else np.asarray(sh.weights, dtype=np.float64)
    )
    keep = src_l != tgt_l
    if not keep.all():
        src_l, tgt_l, w_l = src_l[keep], tgt_l[keep], w_l[keep]
    if src_l.shape[0] == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    vid, best_lab_d, best_gain = _best_moves(
        lab_dense, strength_own, s_present, big_w, src_l, tgt_l, w_l
    )
    best_lab = np.where(
        best_lab_d < 0, -1, present[np.maximum(best_lab_d, 0)]
    )
    return sh.local_to_global[vid], best_lab, best_gain


def _gather_strengths(drv: BSPDriver) -> np.ndarray:
    """Global vertex-strength array via one superstep (exact floats:
    each vertex's strength is accumulated over its own CSR row in arc
    order, same as the global bincount)."""
    ss = drv.shard_set
    active = [s for s in range(ss.k) if ss.shard_meta(s)["n_owned"]]
    payloads = [(str(ss.shard_path(s)), s) for s in active]
    results = drv.superstep("pla:strengths", _pla_strength_worker, payloads)
    strength = np.zeros(ss.n_vertices, dtype=np.float64)
    for s, res in zip(active, results):
        strength[ss.owned(s)] = res
    return strength


def _sharded_sweep_once(
    drv: BSPDriver,
    labels: np.ndarray,
    strength_v: np.ndarray,
    big_w: float,
    q: float,
    sweep_no: int,
) -> tuple[np.ndarray, float, int]:
    """One synchronized local-moving sweep over the shards.

    Mirrors ``community.pla._sweep_once``: same per-vertex best-move
    rows (merged in ascending vertex order) into the same
    ``_apply_guarded_moves`` guard, with the streamed modularity as its
    Q evaluator.
    """
    ss = drv.shard_set
    n = ss.n_vertices
    S = np.bincount(labels, weights=strength_v, minlength=n)
    active = [s for s in range(ss.k) if ss.shard_meta(s)["n_owned"]]
    # Workers derive their dense label remap locally from the shared
    # global snapshots; the coordinator ships three O(n) arrays, not
    # per-shard materialized slices.
    payloads = [
        (str(ss.shard_path(s)), s, labels, strength_v, S, big_w)
        for s in active
    ]
    results = drv.superstep(
        f"pla:sweep{sweep_no}", _pla_sweep_worker, payloads
    )
    parts = [r for r in results if r is not None and r[0].shape[0]]
    if not parts:
        return labels, q, 0
    vid = np.concatenate([p[0] for p in parts])
    best_lab = np.concatenate([p[1] for p in parts])
    best_gain = np.concatenate([p[2] for p in parts])
    order = np.argsort(vid, kind="stable")
    vid, best_lab, best_gain = vid[order], best_lab[order], best_gain[order]

    return _apply_guarded_moves(
        labels, q, vid, best_lab, best_gain,
        lambda cand: sharded_modularity(ss, cand),
    )


def sharded_pla(
    shard_set: ShardSet,
    *,
    max_passes: int = 16,
    driver: Optional[BSPDriver] = None,
    ctx=None,
) -> ClusteringResult:
    """Multilevel pLA over a shard set; bit-identical to
    ``pla(graph, multilevel=True)`` on the stitched graph.

    Level 0 (the fine graph — the only level that is ``O(m)``) runs
    sharded: strengths, best-move sweeps and the modularity guard all
    stream shard-at-a-time.  Contraction levels ≥ 1 run the in-core
    level loop (``community.pla._coarsen``) on the already-coarsened
    in-core graph; the final refinement sweeps run sharded again.
    """
    ss = shard_set
    if ss.directed:
        raise GraphStructureError(
            "community detection requires an undirected graph"
        )
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")
    n = ss.n_vertices
    if n == 0:
        raise ClusteringError("cannot cluster an empty graph")
    big_w = ss.total_weight
    if big_w == 0.0:
        return ClusteringResult(np.arange(n, dtype=np.int64), 0.0, "pLA")
    drv = _resolve_driver(ss, driver, ctx)

    # Checkpoints cover the two sharded (fine-graph) phases — the only
    # O(m) ones.  ``st`` is a phase machine: ``level0`` sweeps, then the
    # in-core contraction pyramid (cheap, re-done deterministically on
    # resume), then ``refine`` sweeps on the uncoarsened labels.  A
    # checkpoint record is taken *after* the moved-count break check so
    # a resumed run repeats exactly the sweeps the uninterrupted run
    # would have executed (same ``n_sweeps``, same superstep names).  A
    # record holds the phase scalars and the vertices whose label
    # differs from the previous record's, with their labels; the first
    # also holds ``strength_fine``.  Label arrays are never written in
    # place, so the previous record's labels are kept by reference.
    tag = "pla"
    records = drv.resume(tag, {"n": n, "max_passes": max_passes}) or []
    labels = np.arange(n, dtype=np.int64)
    for _, movers, moved_to in records:
        labels[movers] = moved_to
    if records:
        st = {
            **records[-1][0], "labels": labels,
            "strength_fine": records[0][0]["strength_fine"],
        }
    else:
        st = {
            "phase": "level0", "pass_no": 0, "labels": labels,
            "strength_fine": _gather_strengths(drv),
            "q": sharded_modularity(ss, labels),
            "sweep_label": 0,  # superstep naming only (refinement included)
            "n_sweeps": 0,  # coarsening-phase sweeps, as in-core counts them
            "n_levels": 0,
        }
    logged, first_record = labels, not records
    while True:
        for p in range(st["pass_no"], max_passes):
            labels, q, moved = _sharded_sweep_once(
                drv, st["labels"], st["strength_fine"], big_w, st["q"],
                st["sweep_label"],
            )
            st = {
                **st, "pass_no": p + 1, "labels": labels, "q": q,
                "sweep_label": st["sweep_label"] + 1,
                "n_sweeps": st["n_sweeps"] + int(st["phase"] == "level0"),
            }
            if moved == 0:
                break
            scalars = {
                key: st[key] for key in (
                    "phase", "pass_no", "q", "sweep_label", "n_sweeps",
                    "n_levels",
                )
            }
            if first_record:
                scalars["strength_fine"] = st["strength_fine"]
            movers = np.flatnonzero(labels != logged)
            drv.maybe_checkpoint(tag, (scalars, movers, labels.take(movers)))
            logged, first_record = labels, False
        if st["phase"] == "refine":
            break
        # Level 0 converged: contract it out of core, run levels >= 1
        # through the in-core level loop (the coarse graph fits in
        # core), then refine the projected labels with sharded sweeps.
        labels, n_levels, n_sweeps = st["labels"], 0, st["n_sweeps"]
        if int(np.unique(labels).shape[0]) != n:
            g, vmap = sharded_contract(ss, labels)
            coarse, n_levels = np.arange(g.n_vertices, dtype=np.int64), 1
            if g.n_vertices > 1:
                coarse, levels, swept = _coarsen(g, big_w, max_passes, drv.ctx)
                n_levels += levels
                n_sweeps += swept
            labels = coarse[vmap]
        st = {
            **st, "phase": "refine", "pass_no": 0, "labels": labels,
            "q": sharded_modularity(ss, labels),
            "n_levels": n_levels, "n_sweeps": n_sweeps,
        }
    labels = np.unique(st["labels"], return_inverse=True)[1].astype(np.int64)
    q = sharded_modularity(ss, labels)
    drv.clear_checkpoint(tag)
    return ClusteringResult(
        labels,
        q,
        "pLA",
        extras={
            "multilevel": True,
            "n_levels": st["n_levels"],
            "n_sweeps": st["n_sweeps"],
        },
    )
