"""Shard-at-a-time algorithms, bit-identical to the in-core kernels.

Each one runs its in-core counterpart's loop and steps with supersteps
for the arc passes, and checkpoints what each superstep wrote through
the driver's record log; DESIGN §12 (and §13) says how, per kernel.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from repro.centrality.closeness import _lane_scores, _lane_totals
from repro.community.modularity import modularity_fold
from repro.community.pla import (
    _best_moves,
    _coarsen,
    _guarded_sweep,
    _loopless_arcs,
    _multilevel_result,
    _sweep_loop,
    _vertex_strengths,
)
from repro.community.result import ClusteringResult
from repro.errors import ClusteringError, GraphStructureError
from repro.graph.builder import contract_chunks
from repro.graph.csr import Graph
from repro.kernels import segments
from repro.kernels._frontier import vertex_ids
from repro.kernels.bfs import (
    MSBFSResult,
    UNREACHED,
    _WORD_LANES,
    _msbfs_word,
    _or_by_target,
    _scatter_new_lanes,
    _seed_lane_words,
    source_batches,
)
from repro.kernels.connected import _hook_round
from repro.kernels.segments import concat_ranges, distinct, reduce_over_rows
from repro.sharded.bsp import BSPDriver
from repro.sharded.shards import ShardSet, _cached_shard

__all__ = [
    "sharded_msbfs",
    "sharded_closeness",
    "sharded_connected_components",
    "sharded_modularity",
    "sharded_contract",
    "sharded_pla",
]

def _broadcast(ss: ShardSet, *shared) -> list:
    """One payload per active shard: its path and index, then ``shared``
    by reference (coordinator state only advances between supersteps)."""
    return [(str(ss.shard_path(s)), s, *shared) for s in ss.active]


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
        got = reduce_over_rows(
            np.bitwise_or, words.take(l2g), offs, tg,
            np.zeros(sh.n_owned, dtype=words.dtype), unfinished[0],
        )
        tgt = got.nonzero()[0]  # owned rows lead the local ids
        return l2g.take(tgt), got.take(tgt)
    deg = offs[rows + 1] - offs[rows]
    bounds = segments.chunk_bounds(deg, segments.ARC_CHUNK)
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

    The in-core level loop (``kernels.bfs._msbfs_word``) with superstep
    steps: a push ships each shard its owned frontier rows and claims
    the merged ``(vertex, word)`` pairs the shards return; a pull ships
    every shard the one dense frontier and scatters the disjoint owned
    rows they return into the dense words the loop claims.  The
    coordinator keeps the ``seen`` words, so ``result.distances`` and
    ``n_levels`` are bit-identical to ``kernels.bfs.msbfs`` on the
    stitched graph.

    A level's checkpoint record is what it claimed: ``(lo, level,
    verts, words)``.  With a resume-armed driver checkpointer the
    records are replayed onto the seeded words — ``seen`` and the
    distance plane are exactly the claims so far — and the traversal
    continues from the last record's frontier, so re-running the level
    the crash interrupted is exact.
    """
    ss = shard_set
    drv = driver or BSPDriver(ss, ctx=ctx)
    n = ss.n_vertices
    srcs = vertex_ids(sources, n, "source")
    k = srcs.shape[0]
    dist = np.full((k, n), UNREACHED, dtype=np.int32)
    if k == 0:
        return MSBFSResult(srcs, dist, 0)
    degs_all = ss.degrees()
    owner, local_index = ss.owner, ss.local_index
    active = ss.active
    paths = {s: str(ss.shard_path(s)) for s in active}
    with_arcs = {}  # shard -> its owned rows with arcs: (ids, rows, degs)
    for s in active:
        degs = degs_all.take(ss.owned(s))
        rows = np.flatnonzero(degs)
        with_arcs[s] = (ss.owned(s).take(rows), rows, degs.take(rows))
    tag = checkpoint_tag
    records = drv.resume(tag, {"n": n, "srcs": srcs, "max_depth": max_depth}) or []
    resume_lo = records[-1][0] if records else 0

    def superstep(payloads):  # one per level, named after it
        nonlocal step
        step += 1
        return drv.superstep(
            f"msbfs:level{step - 1}", _msbfs_level_worker, payloads
        )

    def push(verts, words):
        ow = owner.take(verts)
        payloads = []
        for s in active:
            mine = (ow == s).nonzero()[0]
            if mine.shape[0]:
                payloads.append((paths[s], s, local_index.take(verts.take(mine)),
                                 words.take(mine)))
        results = superstep(payloads)
        del payloads  # free the per-shard copies before the merge
        return tuple(np.concatenate(col) for col in zip(*results))

    def pull(frontier, seen):
        # Every payload shares ONE reference to the dense frontier —
        # O(n) words resident, not O(n + total halo).  A row with every
        # lane seen cannot claim anything, so a shard whose unfinished
        # rows hold under half its arcs pulls over those rows only.
        results = superstep([
            (paths[s], s, None, frontier,
             _unfinished_rows(seen, all_lanes, *with_arcs[s]))
            for s in active
        ])
        fresh = np.zeros(n, dtype=frontier.dtype)
        for tgt, got in results:
            fresh[tgt] = got  # owned rows: disjoint across shards
        return fresh

    def checkpoint(level, verts, words):
        drv.maybe_checkpoint(tag, (lo, level, verts, words))

    n_levels = 0
    for lo in range(0, k, _WORD_LANES):
        rows = dist[lo : lo + _WORD_LANES]
        seen, verts, words = _seed_lane_words(srcs[lo : lo + _WORD_LANES], rows)
        all_lanes = seen.dtype.type((1 << rows.shape[0]) - 1)
        level = 0
        for _, level, verts, words in (r for r in records if r[0] == lo):
            seen[verts] |= words
            _scatter_new_lanes(rows.reshape(-1), n, verts, words, level)
        if lo >= resume_lo:  # else finished before the crash: replayed
            step = level
            level = _msbfs_word(
                (seen, verts, words, level), rows, push, pull, degs_all,
                ss.n_arcs, max_depth, on_level=checkpoint,
            )
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
    drv = driver or BSPDriver(ss, ctx=ctx)
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
    return reduce_over_rows(
        np.minimum, labels_local, sh.offsets, sh.targets,
        labels_local[: sh.n_owned].copy(),
    )


def sharded_connected_components(
    shard_set: ShardSet,
    *,
    driver: Optional[BSPDriver] = None,
    ctx=None,
) -> np.ndarray:
    """Component labels (min vertex id per component) over a shard set.

    Each superstep is one round of the in-core Shiloach–Vishkin kernel:
    the shards return every owned row's smallest neighbor label, and
    the coordinator hooks the root of each row that found a smaller one
    with the in-core hook round (``kernels.connected._hook_round``), so
    the rounds, and the labels, are the in-core ones.  A round's
    checkpoint record is its hooks, ``(roots, labels)``, folded on
    resume by the same hook round.
    """
    ss = shard_set
    drv = driver or BSPDriver(ss, ctx=ctx)
    n = ss.n_vertices
    label = np.arange(n, dtype=np.int64)
    if ss.n_arcs == 0:
        return label
    tag = "components"
    records = drv.resume(tag, {"n": n}) or []
    for roots, lows in records:
        label = _hook_round(label, roots, lows)
    round_no = len(records)
    while True:
        results = drv.superstep(
            f"cc:round{round_no}", _cc_round_worker, _broadcast(ss, label)
        )
        roots, lows = [], []
        for s, res in zip(ss.active, results):
            mine = label.take(ss.owned(s))
            lower = (res < mine).nonzero()[0]
            roots.append(mine.take(lower))
            lows.append(res.take(lower))
        roots, lows = np.concatenate(roots), np.concatenate(lows)
        if not roots.shape[0]:
            break
        label = _hook_round(label, roots, lows)
        round_no += 1
        drv.maybe_checkpoint(tag, (roots, lows))
    drv.clear_checkpoint(tag)
    return label


# ---------------------------------------------------------------------------
# Streamed modularity / contraction over the global edge stream
# ---------------------------------------------------------------------------
def sharded_modularity(
    shard_set: ShardSet,
    labels: np.ndarray,
    *,
    chunk_edges: Optional[int] = None,
) -> float:
    """Modularity of a partition: the in-core fold
    (:func:`repro.community.modularity.modularity_fold`) over the shard
    set's edge stream (:meth:`ShardSet.edge_chunks`), so its floats
    equal :func:`repro.community.modularity.modularity`'s exactly.
    ``total_w`` comes from the manifest's hex-exact total.
    """
    ss = shard_set
    return modularity_fold(
        labels, ss.n_vertices, ss.n_edges, ss.total_weight,
        lambda: ss.edge_chunks(chunk_edges),
    )


def sharded_contract(
    shard_set: ShardSet,
    labels: np.ndarray,
    *,
    chunk_edges: Optional[int] = None,
) -> tuple[Graph, np.ndarray]:
    """Contract the sharded graph by ``labels`` into an in-core coarse
    graph: the in-core fold (:func:`repro.graph.builder.contract_chunks`)
    over the edge stream (:meth:`ShardSet.edge_chunks`), bit-identical to
    :func:`repro.graph.builder.contract`.
    """
    ss = shard_set
    return contract_chunks(labels, ss.n_vertices, ss.edge_chunks(chunk_edges))


# ---------------------------------------------------------------------------
# pLA (multilevel)
# ---------------------------------------------------------------------------
def _pla_strength_worker(task):
    """Vertex strengths of this shard's owned rows (self-loops count)."""
    path, index = task
    return _vertex_strengths(_cached_shard(path, index).rows())


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
    present, lab_dense = np.unique(
        labels_global[sh.local_to_global], return_inverse=True
    )
    vid, best_lab_d, best_gain = _best_moves(
        lab_dense.astype(np.int64), strength_global[sh.owned],
        s_global[present], big_w, *_loopless_arcs(sh.rows()),
    )
    best_lab = np.where(
        best_lab_d < 0, -1, present[np.maximum(best_lab_d, 0)]
    )
    return sh.local_to_global[vid], best_lab, best_gain


def _gather_strengths(drv: BSPDriver) -> np.ndarray:
    """Global vertex-strength array via one superstep (exact floats:
    each vertex's strength is accumulated over its own CSR row in arc
    order, same as the in-core ``_vertex_strengths``)."""
    ss = drv.shard_set
    results = drv.superstep(
        "pla:strengths", _pla_strength_worker, _broadcast(ss)
    )
    strength = np.zeros(ss.n_vertices, dtype=np.float64)
    for s, res in zip(ss.active, results):
        strength[ss.owned(s)] = res
    return strength


def _sharded_best_moves(drv: BSPDriver, sweep_no: int, labels, strength_v,
                        big_w: float, S: np.ndarray) -> tuple:
    """Every vertex's best move, as in-core ``_best_moves``: one superstep
    over the shards, merged in ascending vertex order."""
    results = drv.superstep(
        f"pla:sweep{sweep_no}", _pla_sweep_worker,
        _broadcast(drv.shard_set, labels, strength_v, S, big_w),
    )
    vid, best_lab, best_gain = (np.concatenate(c) for c in zip(*results))
    order = np.argsort(vid, kind="stable")
    return vid[order], best_lab[order], best_gain[order]


#: The scalars of a ``sharded_pla`` checkpoint record, in record order.
_PLA_SCALARS = ("phase", "pass_no", "q", "sweep_label", "n_sweeps", "n_levels")


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
    if max_passes < 1:
        raise ValueError("max_passes must be >= 1")
    n = ss.n_vertices
    if n == 0:
        raise ClusteringError("cannot cluster an empty graph")
    big_w = ss.total_weight
    if big_w == 0.0:
        return ClusteringResult(np.arange(n, dtype=np.int64), 0.0, "pLA")
    drv = driver or BSPDriver(ss, ctx=ctx)
    q_of = functools.partial(sharded_modularity, ss)

    # Checkpoints cover the two sharded (fine-graph) sweep loops — the
    # only O(m) phases; the in-core contraction pyramid between them is
    # cheap and re-done deterministically on resume.  The loop's hook
    # logs a record after every sweep that moved something, so a
    # resumed run repeats exactly the sweeps the uninterrupted run
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
        strength = records[0][0]["strength_fine"]
        phase, start, q, sweep_label, n_sweeps, n_levels = (
            records[-1][0][key] for key in _PLA_SCALARS
        )
    else:
        # ``sweep_label`` names supersteps (refinement included);
        # ``n_sweeps`` counts coarsening sweeps, as in-core does.
        strength = _gather_strengths(drv)
        phase, start, q, sweep_label, n_sweeps, n_levels = (
            "level0", 0, q_of(labels), 0, 0, 0
        )
    logged, first_record = labels, not records

    def sweep(labels, q):
        # The in-core sweep step, its best moves found out of core.
        nonlocal sweep_label, n_sweeps
        best_moves = functools.partial(
            _sharded_best_moves, drv, sweep_label, labels, strength, big_w
        )
        sweep_label, n_sweeps = sweep_label + 1, n_sweeps + (phase == "level0")
        return _guarded_sweep(labels, strength, q, q_of, best_moves)

    def checkpoint(labels, q, pass_no):
        nonlocal logged, first_record
        scalars = dict(zip(_PLA_SCALARS, (
            phase, pass_no, q, sweep_label, n_sweeps, n_levels,
        )))
        if first_record:
            scalars["strength_fine"] = strength
        movers = np.flatnonzero(labels != logged)
        drv.maybe_checkpoint(tag, (scalars, movers, labels.take(movers)))
        logged, first_record = labels, False

    if phase == "level0":
        labels, *_ = _sweep_loop(labels, q, sweep, max_passes, start, checkpoint)
        # Level 0 converged: contract it out of core, run levels >= 1
        # through the in-core level loop (the coarse graph fits in
        # core), then refine the projected labels with sharded sweeps.
        if int(distinct(labels).shape[0]) != n:
            g, vmap = sharded_contract(ss, labels)
            coarse, n_levels = np.arange(g.n_vertices, dtype=np.int64), 1
            if g.n_vertices > 1:
                coarse, levels, swept = _coarsen(
                    g, big_w, max_passes, drv.ctx, level=1
                )
                n_levels += levels
                n_sweeps += swept
            labels = coarse[vmap]
        phase, start, q = "refine", 0, q_of(labels)
    labels, *_ = _sweep_loop(labels, q, sweep, max_passes, start, checkpoint)
    res = _multilevel_result(labels, q_of, n_levels, n_sweeps)
    drv.clear_checkpoint(tag)
    return res
