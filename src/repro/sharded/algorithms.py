"""Shard-at-a-time algorithms, bit-identical to the in-core kernels.

Every public function here reproduces its in-core counterpart's output
*exactly* (``np.array_equal`` on integers, equal bits on floats), while
touching only one shard's CSR per worker task plus ``O(n)`` vertex
state at the coordinator:

* :func:`sharded_msbfs` — the in-core word formulation with each
  level's arc pass as one superstep: shards return ``(vertex, lane
  word)`` pairs for the frontier they were shipped, the coordinator ORs
  them per vertex and masks with its ``seen`` words; the new bits are
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
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.community.modularity import modularity_evaluator
from repro.community.pla import (
    _apply_guarded_moves,
    _best_moves,
    _loopless_arcs,
    _sweep_once,
    _vertex_strengths,
)
from repro.community.result import ClusteringResult
from repro.errors import ClusteringError, CorruptCheckpoint, GraphStructureError
from repro.graph.builder import contract, from_edge_array
from repro.graph.csr import VERTEX_DTYPE, Graph
from repro.kernels.bfs import (
    MSBFSResult,
    UNREACHED,
    _PULL_ARC_RATIO,
    _WORD_LANES,
    _claim_new,
    _or_by_target,
    _scatter_new_lanes,
    _seed_lane_words,
    source_batches,
)
from repro.kernels.segments import chunk_bounds, grouped_label_weights
from repro.sharded.bsp import BSPDriver, MemoryBudget
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


def _reduce_over_rows(ufunc, local_vals, sh, out: np.ndarray) -> np.ndarray:
    """Fold ``ufunc`` over each owned row's neighbor values into ``out``
    (``local_vals`` is indexed by local id; rows without arcs keep
    ``out[r]``), walking the CSR in ``ARC_CHUNK`` blocks."""
    offs, tg = sh.offsets, sh.targets
    deg = offs[1:] - offs[:-1]
    bounds = chunk_bounds(deg, ARC_CHUNK)
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        rows = b0 + np.flatnonzero(deg[b0:b1])
        if rows.shape[0]:
            nbr = local_vals.take(tg[offs[b0]:offs[b1]])
            out[rows] = ufunc(out[rows], ufunc.reduceat(nbr, offs[rows] - offs[b0]))
    return out


# Worker-side shard cache lives in repro.sharded.shards so the BSP
# driver can drop it between supersteps without a circular import.


def _resolve_driver(
    shard_set: ShardSet,
    driver: Optional[BSPDriver],
    ctx,
    mem_budget: Optional[MemoryBudget],
) -> BSPDriver:
    if driver is not None:
        return driver
    return BSPDriver(shard_set, ctx=ctx, mem_budget=mem_budget)


def _check_resume_match(drv: BSPDriver, tag: str, st: dict, expected: dict) -> None:
    """Refuse to resume from a checkpoint written for different inputs.

    Every resumable algorithm stores its identifying parameters in the
    checkpoint state; a mismatch (different sources, graph size,
    ``max_passes``, …) means the checkpoint belongs to another run and
    resuming from it would silently produce wrong-for-this-run output.
    """
    path = drv.checkpointer.path_for(tag)
    for key, want in expected.items():
        got = st.get(key)
        same = (
            np.array_equal(got, want)
            if isinstance(want, np.ndarray)
            else got == want
        )
        if not same:
            raise CorruptCheckpoint(
                f"corrupt checkpoint {path}: parameter {key!r} mismatch "
                f"(checkpoint {got!r} vs run {want!r}) — it was written "
                "for a different run; delete it or rerun without --resume"
            )


# ---------------------------------------------------------------------------
# msbfs
# ---------------------------------------------------------------------------
#: Shape of the msbfs checkpoint state; a checkpoint written by another
#: formulation (the pre-word one had ``lanes``/``todo_arcs``, no
#: ``seen``/``words``) is refused like any other parameter mismatch.
_MSBFS_STATE = "lane-words/1"


def _msbfs_level_worker(task):
    """One (shard, level) step of one lane word, as in
    ``kernels.bfs._msbfs_word``: returns ``(global vertices, words)``,
    at most one pair per vertex.

    Push (``rows`` = owned frontier rows, ``words`` their new-lane
    words): each word travels along its row's arcs and is OR-ed per
    target.  Pull (``rows is None``, ``words`` = the dense global
    frontier): every owned row ORs the frontier words of its neighbors.
    Neither side sees ``seen`` — the coordinator masks the merged words —
    so on an undirected graph both name the same newly reached set.
    """
    path, index, rows, words = task
    sh = _cached_shard(path, index)
    offs, tg, l2g = sh.offsets, sh.targets, sh.local_to_global
    if rows is None:
        got = _reduce_over_rows(
            np.bitwise_or, words.take(l2g), sh,
            np.zeros(sh.n_owned, dtype=words.dtype),
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


def sharded_msbfs(
    shard_set: ShardSet,
    sources,
    *,
    max_depth: Optional[int] = None,
    driver: Optional[BSPDriver] = None,
    ctx=None,
    mem_budget: Optional[MemoryBudget] = None,
    checkpoint_tag: str = "msbfs",
) -> MSBFSResult:
    """Level-synchronous multi-source BFS over a shard set.

    ``kernels.bfs.msbfs``'s word formulation with each level's arc pass
    as one superstep: the coordinator keeps the ``seen`` lane words and
    the sparse frontier ``(verts, words)``, picks push or pull by the
    in-core rule and claims the shards' merged ``(vertex, word)`` pairs
    with the in-core step.  ``result.distances`` and ``n_levels`` are
    bit-identical to ``kernels.bfs.msbfs`` on the stitched graph.

    With a resume-armed driver checkpointer, restarts from the last
    durable level: the state saved at the superstep boundary (distance
    plane, word index, ``seen``, frontier, level) determines every later
    payload, so re-running the level the crash interrupted is exact.
    """
    ss = shard_set
    drv = _resolve_driver(ss, driver, ctx, mem_budget)
    n = ss.n_vertices
    srcs = np.asarray(list(sources), dtype=np.int64)
    k = srcs.shape[0]
    if k and (srcs.min() < 0 or srcs.max() >= n):
        bad = srcs[(srcs < 0) | (srcs >= n)][0]
        raise GraphStructureError(f"source {int(bad)} out of range [0, {n})")
    dist = np.full((k, n), UNREACHED, dtype=np.int32)
    if k == 0:
        return MSBFSResult(srcs, dist, 0)
    degs_all = drv.degrees()
    owner, local_index = ss.owner, ss.local_index
    active = [s for s in range(ss.k) if ss.shard_meta(s)["n_owned"]]
    paths = {s: str(ss.shard_path(s)) for s in active}
    tag = checkpoint_tag
    params = {
        "formulation": _MSBFS_STATE, "n": n, "srcs": srcs,
        "max_depth": max_depth,
    }
    first_lo = n_levels = 0
    st = drv.load_resume(tag)
    if st is not None:
        _check_resume_match(drv, tag, st, params)
        dist, first_lo, n_levels = st["dist"], int(st["lo"]), int(st["n_levels"])
    for lo in range(first_lo, k, _WORD_LANES):
        dist_flat = dist[lo : lo + _WORD_LANES].reshape(-1)
        if st is not None:
            seen, verts, words = st["seen"], st["verts"], st["words"]
            level = int(st["level"])
            st = None
        else:
            seen, verts, words = _seed_lane_words(
                srcs[lo : lo + _WORD_LANES], dist_flat, n
            )
            level = 0
        while verts.shape[0] and (max_depth is None or level < max_depth):
            f_arcs = int(degs_all.take(verts).sum())
            if f_arcs * _PULL_ARC_RATIO > ss.n_arcs:
                # Every payload shares ONE reference to the dense
                # frontier — O(n) words resident, not O(n + total halo).
                frontier = np.zeros(n, dtype=words.dtype)
                frontier[verts] = words
                payloads = [(paths[s], s, None, frontier) for s in active]
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
            tgt, got = (np.concatenate(col) for col in zip(*results))
            del results, payloads  # free per-shard copies before the merge sort
            verts, words = _claim_new(seen, tgt, got)
            if verts.shape[0] == 0:
                break
            level += 1
            _scatter_new_lanes(dist_flat, n, verts, words, level)
            drv.maybe_checkpoint(tag, {
                **params, "dist": dist, "lo": lo, "n_levels": n_levels,
                "seen": seen, "verts": verts, "words": words, "level": level,
            })
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
    mem_budget: Optional[MemoryBudget] = None,
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
    drv = _resolve_driver(ss, driver, ctx, mem_budget)
    n = ss.n_vertices
    if sources is None:
        sources = range(n)
    src_list = list(sources)
    out = np.zeros(n, dtype=np.float64)
    batches = source_batches(src_list, batch_size, n)
    # Resume at batch granularity: the accumulated scores plus the next
    # batch index are the whole between-batch state.  The in-flight
    # batch's traversal checkpoints under its own per-batch tag.
    tag = "closeness"
    srcs_arr = np.asarray(src_list, dtype=np.int64)
    start_batch = 0
    st = drv.load_resume(tag)
    if st is not None:
        _check_resume_match(drv, tag, st, {
            "n": n, "srcs": srcs_arr, "wf_improved": wf_improved,
            "n_batches": len(batches),
        })
        out = st["out"]
        start_batch = int(st["next_batch"])
    for i, batch in enumerate(batches):
        if i < start_batch:
            continue
        dist = sharded_msbfs(
            ss, batch, driver=drv, checkpoint_tag=f"{tag}.msbfs{i}"
        ).distances
        reached = dist >= 0
        r = reached.sum(axis=1).astype(np.int64)
        total = np.where(reached, dist, 0).sum(axis=1).astype(np.float64)
        valid = (r > 1) & (total > 0)
        cc = np.zeros(batch.shape[0], dtype=np.float64)
        cc[valid] = (r[valid] - 1) / total[valid]
        if wf_improved and n > 1:
            cc[valid] *= (r[valid] - 1) / (n - 1)
        out[batch] = cc
        # Forced: the inner traversal's own checkpoints leave the
        # cadence counter freshly satisfied, but a completed batch is
        # the boundary that lets a resume skip it entirely.
        drv.maybe_checkpoint(tag, {
            "n": n, "srcs": srcs_arr, "wf_improved": wf_improved,
            "n_batches": len(batches), "out": out, "next_batch": i + 1,
        }, force=True)
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
    mem_budget: Optional[MemoryBudget] = None,
) -> np.ndarray:
    """Component labels (min vertex id per component) over a shard set.

    Min-label hook supersteps with coordinator pointer compression —
    the same fixpoint the in-core Shiloach–Vishkin kernel returns, so
    labels are bit-identical.
    """
    ss = shard_set
    drv = _resolve_driver(ss, driver, ctx, mem_budget)
    n = ss.n_vertices
    label = np.arange(n, dtype=np.int64)
    if ss.n_arcs == 0:
        return label
    active = [s for s in range(ss.k) if ss.shard_meta(s)["n_owned"]]
    round_no = 0
    tag = "components"
    st = drv.load_resume(tag)
    if st is not None:
        _check_resume_match(drv, tag, st, {"n": n})
        label = st["label"]
        round_no = int(st["round_no"])
    while True:
        # The label snapshot is shared by reference across payloads —
        # it only advances between supersteps (see msbfs note).
        payloads = [(str(ss.shard_path(s)), s, label) for s in active]
        results = drv.superstep(
            f"cc:round{round_no}", _cc_round_worker, payloads
        )
        changed = False
        for s, res in zip(active, results):
            owned = ss.member_array(s, "owned")
            if not changed and bool((res < label[owned]).any()):
                changed = True
            np.minimum(label[owned], res, out=res)
            label[owned] = res
        # Pointer compression: labels are vertex ids, so label[label]
        # jumps every vertex to its current representative's label.
        while True:
            nxt = label[label]
            if np.array_equal(nxt, label):
                break
            label = nxt
        if not changed:
            break
        round_no += 1
        drv.maybe_checkpoint(tag, {
            "n": n, "label": label, "round_no": round_no,
        })
    drv.clear_checkpoint(tag)
    return label


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
        strength[ss.member_array(s, "owned")] = res
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
    mem_budget: Optional[MemoryBudget] = None,
) -> ClusteringResult:
    """Multilevel pLA over a shard set; bit-identical to
    ``pla(graph, multilevel=True)`` on the stitched graph.

    Level 0 (the fine graph — the only level that is ``O(m)``) runs
    sharded: strengths, best-move sweeps and the modularity guard all
    stream shard-at-a-time.  Contraction levels ≥ 1 operate on the
    already-coarsened in-core graph via the same helpers the in-core
    path uses; the final refinement sweeps run sharded again.
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
    drv = _resolve_driver(ss, driver, ctx, mem_budget)

    # Checkpoints cover the two sharded (fine-graph) phases — the only
    # O(m) ones.  State is a phase machine: ``level0`` sweeps, then the
    # in-core contraction pyramid (cheap, re-done deterministically on
    # resume), then ``refine`` sweeps on the uncoarsened labels.  A
    # checkpoint is taken *after* the moved-count break check so a
    # resumed run repeats exactly the sweeps the uninterrupted run
    # would have executed (same ``n_sweeps``, same superstep names).
    tag = "pla"
    level_maps: list[np.ndarray] = []
    n_sweeps = 0  # coarsening-phase sweeps, as in-core counts them
    sweep_label = 0  # superstep naming only (refinement sweeps included)
    phase = "level0"
    pass_start = 0
    n_levels = 0

    st = drv.load_resume(tag)
    if st is not None:
        _check_resume_match(drv, tag, st, {"n": n, "max_passes": max_passes})
        strength_fine = st["strength_fine"]
        q = float(st["q"])
        sweep_label = int(st["sweep_label"])
        n_sweeps = int(st["n_sweeps"])
        phase = st["phase"]
        pass_start = int(st["pass_no"])
        if phase == "level0":
            labels_g = st["labels"]
        else:
            labels = st["labels"]
            n_levels = int(st["n_levels"])
    else:
        labels_g = np.arange(n, dtype=np.int64)
        strength_fine = _gather_strengths(drv)
        q = sharded_modularity(ss, labels_g)

    if phase == "level0":
        # Level 0: sharded sweeps + streamed guard on the fine graph.
        for p in range(pass_start, max_passes):
            labels_g, q, moved = _sharded_sweep_once(
                drv, labels_g, strength_fine, big_w, q, sweep_label
            )
            n_sweeps += 1
            sweep_label += 1
            if moved == 0:
                break
            drv.maybe_checkpoint(tag, {
                "n": n, "max_passes": max_passes, "phase": "level0",
                "pass_no": p + 1, "labels": labels_g, "q": q,
                "sweep_label": sweep_label, "n_sweeps": n_sweeps,
                "strength_fine": strength_fine,
            })
        n_clusters = int(np.unique(labels_g).shape[0])
        if n_clusters != n:
            g, vmap = sharded_contract(ss, labels_g)
            level_maps.append(vmap)
            labels_g = np.arange(g.n_vertices, dtype=np.int64)
            # Levels >= 1: the coarse graph fits in core; continue with
            # the exact in-core loop of _multilevel_pla.
            if g.n_vertices > 1:
                while True:
                    strength_v = _vertex_strengths(g)
                    src, tgt, w = _loopless_arcs(g)
                    q_of = modularity_evaluator(g)
                    q = q_of(labels_g)
                    for _ in range(max_passes):
                        labels_g, q, moved = _sweep_once(
                            labels_g, strength_v, big_w, q, src, tgt, w, q_of
                        )
                        n_sweeps += 1
                        if moved == 0:
                            break
                    n_clusters = int(np.unique(labels_g).shape[0])
                    if n_clusters == g.n_vertices:
                        break
                    g, vmap = contract(g, labels_g)
                    level_maps.append(vmap)
                    labels_g = np.arange(g.n_vertices, dtype=np.int64)
                    if g.n_vertices <= 1:
                        break

        labels = labels_g
        for vmap in reversed(level_maps):
            labels = labels[vmap]
        # Uncoarsening refinement on the fine graph — sharded sweeps
        # again (in-core counts only coarsening sweeps in extras,
        # mirrored here).
        labels = np.asarray(labels, dtype=np.int64).copy()
        q = sharded_modularity(ss, labels)
        n_levels = len(level_maps)
        pass_start = 0

    for p in range(pass_start, max_passes):
        labels, q, moved = _sharded_sweep_once(
            drv, labels, strength_fine, big_w, q, sweep_label
        )
        sweep_label += 1
        if moved == 0:
            break
        drv.maybe_checkpoint(tag, {
            "n": n, "max_passes": max_passes, "phase": "refine",
            "pass_no": p + 1, "labels": labels, "q": q,
            "sweep_label": sweep_label, "n_sweeps": n_sweeps,
            "strength_fine": strength_fine, "n_levels": n_levels,
        })
    labels = np.unique(labels, return_inverse=True)[1].astype(np.int64)
    q = sharded_modularity(ss, labels)
    drv.clear_checkpoint(tag)
    return ClusteringResult(
        labels,
        q,
        "pLA",
        extras={
            "multilevel": True,
            "n_levels": n_levels,
            "n_sweeps": n_sweeps,
        },
    )
