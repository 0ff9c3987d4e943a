"""Fiduccia–Mattheyses / Kernighan–Lin style refinement (paper §2.2).

The multilevel partitioners refine at every uncoarsening level:

* :func:`fm_refine_bisection` — boundary FM for two parts: vertices
  move one at a time by best gain (with lock-until-pass-end), the best
  prefix of moves is kept — the KL idea [28] with FM's single-vertex
  moves and gain updates;
* :func:`kway_refine` — greedy boundary refinement for k parts, the
  kmetis-style "move to the best adjacent part if it helps and balance
  allows" sweep.

Fast paths (DESIGN §1.2c): ``kway_refine`` keeps an incrementally
maintained dirty set — a vertex is (re)evaluated only when its
neighborhood changed or a balance block may have lifted — and computes
the per-(vertex, part) connection weights for a whole pass in one
``bincount`` over the candidate arcs.  A clean vertex provably cannot
move (its gain is unchanged and was ≤ threshold), so the refined
partition is *identical* to the exhaustive re-scan
(:func:`repro.qa.oracles.kway_refine_rescan` keeps the original
implementation as the regression oracle).  The per-vertex move loops of
both refiners keep their scalars in call-local plain lists and apply
neighbor updates in arc order — the floats of a numpy scatter, without
its per-element dispatch.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.errors import PartitioningError
from repro.graph.csr import Graph
from repro.kernels.segments import boundary_vertices


def _vertex_part_weights(
    graph: Graph, w: np.ndarray, v: int, parts: np.ndarray, k: int
) -> np.ndarray:
    """Weight of v's edges into each part, accumulated in arc order."""
    lo, hi = graph.offsets[v], graph.offsets[v + 1]
    out = np.bincount(parts[graph.targets[lo:hi]], weights=w[lo:hi], minlength=k)
    return out.astype(np.float64, copy=False)  # bincount of nothing is integer


def _batched_part_weights(
    graph: Graph, w: np.ndarray, cand: np.ndarray, parts: np.ndarray, k: int
) -> np.ndarray:
    """Connection-weight rows for every candidate vertex in one pass.

    ``rows[i, p]`` = weight of ``cand[i]``'s edges into part ``p``.
    Accumulation order per vertex is the adjacency (arc) order, i.e.
    bit-identical to the per-vertex :func:`_vertex_part_weights`.
    """
    b = cand.shape[0]
    if b == 0:
        return np.zeros((0, k), dtype=np.float64)
    offs = graph.offsets
    lengths = (offs[cand + 1] - offs[cand]).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros((b, k), dtype=np.float64)
    row_of = np.repeat(np.arange(b, dtype=np.int64), lengths)
    ends = np.cumsum(lengths)
    rank = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)
    arc_idx = offs[cand][row_of] + rank
    keys = row_of * k + parts[graph.targets[arc_idx]]
    return np.bincount(keys, weights=w[arc_idx], minlength=b * k).reshape(b, k)


def fm_refine_bisection(
    graph: Graph,
    side: np.ndarray,
    *,
    vertex_weights: Optional[np.ndarray] = None,
    max_imbalance: float = 1.05,
    max_passes: int = 8,
) -> np.ndarray:
    """FM refinement of a 2-way partition (``side`` boolean array).

    Returns the refined boolean side array.  Balance is enforced
    against ``max_imbalance`` × ideal side weight.
    """
    n = graph.n_vertices
    side = np.asarray(side, dtype=bool).copy()
    if side.shape[0] != n:
        raise PartitioningError("side length mismatch")
    vw = (
        np.ones(n, dtype=np.float64)
        if vertex_weights is None
        else np.asarray(vertex_weights, dtype=np.float64)
    )
    total_w = float(vw.sum())
    limit = max_imbalance * total_w / 2.0
    src = graph.arc_sources()
    w = graph.arc_weights()
    # call-local plain lists: the move loop reads one scalar at a time
    offs = graph.offsets.tolist()
    tgts = graph.targets.tolist()
    wts = w.tolist()
    vw_l = vw.tolist()

    for _ in range(max_passes):
        # gain(v) = external − internal edge weight
        same = side[src] == side[graph.targets]
        live_gain = np.bincount(
            src, weights=np.where(same, -w, w), minlength=n
        ).tolist()
        heap = [(-g, v) for v, g in enumerate(live_gain)]
        heapq.heapify(heap)
        side_l = side.tolist()
        locked = [False] * n
        weight = [float(vw[~side].sum()), float(vw[side].sum())]
        cur_cut_delta = 0.0
        best_delta = 0.0
        best_len = 0  # the best prefix of ``moves``, as a length
        moves: list[int] = []
        while heap:
            neg, v = heapq.heappop(heap)
            if locked[v] or -neg != live_gain[v]:
                continue
            to = not side_l[v]  # destination side; indexes ``weight`` as 0/1
            if weight[to] + vw_l[v] > limit:
                continue
            # move v
            locked[v] = True
            weight[to] += vw_l[v]
            weight[not to] -= vw_l[v]
            cur_cut_delta -= live_gain[v]
            side_l[v] = to
            moves.append(v)
            if cur_cut_delta < best_delta - 1e-12:
                best_delta = cur_cut_delta
                best_len = len(moves)
            # ±2w gain update of every unlocked neighbor in arc order;
            # each is then re-queued once with its final gain (sorted
            # adjacency: parallel arcs to one neighbor are consecutive)
            touched: list[int] = []
            for i in range(offs[v], offs[v + 1]):
                u = tgts[i]
                if locked[u]:
                    continue
                live_gain[u] += (-2.0 if side_l[u] == to else 2.0) * wts[i]
                if not touched or touched[-1] != u:
                    touched.append(u)
            for u in touched:
                heapq.heappush(heap, (-live_gain[u], u))
        # revert to the best prefix
        for v in moves[best_len:]:
            side_l[v] = not side_l[v]
        side = np.asarray(side_l, dtype=bool)
        if best_delta >= -1e-12:
            break  # no improvement this pass
    return side


def kway_refine(
    graph: Graph,
    parts: np.ndarray,
    k: int,
    *,
    vertex_weights: Optional[np.ndarray] = None,
    max_imbalance: float = 1.05,
    max_passes: int = 8,
) -> np.ndarray:
    """Greedy k-way boundary refinement (kmetis style).

    Evaluates only *dirty* vertices: initially the exact boundary, then
    movers, their neighbors, and balance-blocked vertices.  A clean
    vertex with an unchanged neighborhood cannot move (its connection
    weights — hence its gain — are unchanged and were ≤ threshold), and
    a clean vertex whose neighbor moves *mid-pass* is spliced back into
    the sweep at its sorted position (matching the exhaustive scan's
    visit order), so the refined partition is identical to re-scanning
    the full boundary every pass.
    """
    n = graph.n_vertices
    parts = np.asarray(parts, dtype=np.int64).copy()
    vw = (
        np.ones(n, dtype=np.float64)
        if vertex_weights is None
        else np.asarray(vertex_weights, dtype=np.float64)
    )
    limit = max_imbalance * float(vw.sum()) / k
    src = graph.arc_sources()
    w = graph.arc_weights()
    offs, targets = graph.offsets, graph.targets
    dirty = boundary_vertices(src, targets, parts, n)
    # one vertex at a time: per-vertex scalars live in plain lists
    vw_l = vw.tolist()
    weight = np.bincount(parts, weights=vw, minlength=k).tolist()

    for _ in range(max_passes):
        bmask = boundary_vertices(src, targets, parts, n)
        # A dirty internal vertex cannot move and the exhaustive scan
        # skips it; if a neighbor's move later makes it boundary, that
        # move re-dirties it.
        dirty &= bmask
        cand_arr = np.nonzero(dirty)[0]
        if cand_arr.shape[0] == 0:
            break
        cand = cand_arr.tolist()
        rows = _batched_part_weights(graph, w, cand_arr, parts, k).tolist()
        stale = [False] * len(cand)
        pos_of = {v: i for i, v in enumerate(cand)}
        bmask_l = bmask.tolist()
        # Clean boundary vertices whose neighborhood changes mid-pass
        # are enqueued here and merged back in ascending-id order.
        inserted = [False] * n
        extra: list[int] = []
        moved = 0
        i = 0
        while i < len(cand) or extra:
            if extra and (i >= len(cand) or extra[0] < cand[i]):
                v, pw = heapq.heappop(extra), None
            else:
                v, pw = cand[i], None if stale[i] else rows[i]
                i += 1
            if pw is None:  # not in this pass's batch, or stale since
                pw = _vertex_part_weights(graph, w, v, parts, k).tolist()
            own = int(parts[v])
            pw_own = pw[own]
            # best alternative part by connection weight (first maximum,
            # i.e. the smallest part id on ties)
            pw[own] = -np.inf
            tgt = max(range(k), key=pw.__getitem__)
            gain = pw[tgt] - pw_own
            if gain > 1e-12:
                if weight[tgt] + vw_l[v] <= limit:
                    weight[own] -= vw_l[v]
                    weight[tgt] += vw_l[v]
                    parts[v] = tgt
                    moved += 1
                    # v's own-part change alters its gain; neighbors'
                    # connection weights changed — re-evaluate them.
                    nbrs = targets[offs[v] : offs[v + 1]]
                    dirty[nbrs] = True
                    for u in nbrs.tolist():
                        j = pos_of.get(u)
                        if j is not None:
                            if j >= i:
                                stale[j] = True
                        elif u > v and bmask_l[u] and not inserted[u]:
                            # the exhaustive scan visits u later this
                            # pass and would see the updated state
                            heapq.heappush(extra, u)
                            inserted[u] = True
                # balance-blocked: stays dirty (weights may free up)
            else:
                dirty[v] = False
        if moved == 0:
            break
    weight = np.asarray(weight, dtype=np.float64)

    # Balance enforcement: drain overweight parts through their
    # boundary, moving each spilled vertex to its best-connected part
    # with headroom (small cut regressions allowed — balance first, as
    # in METIS's ufactor contract).
    for _ in range(max_passes):
        over_mask = weight > limit + 1e-9
        if not over_mask.any():
            break
        moved = 0
        # Candidates: every vertex of an overweight part, boundary
        # vertices first (they cost least to move), light before heavy.
        is_boundary = boundary_vertices(src, targets, parts, n)
        cand = np.nonzero(over_mask[parts])[0]
        order = cand[np.lexsort((vw[cand], ~is_boundary[cand]))]
        for v in order:
            v = int(v)
            own = int(parts[v])
            if weight[own] <= limit + 1e-9:
                continue
            pw = _vertex_part_weights(graph, w, v, parts, k)
            pw[own] = -np.inf
            headroom = weight + vw[v] <= limit
            headroom[own] = False
            if not headroom.any():
                continue
            pw[~headroom] = -np.inf
            tgt = int(np.argmax(pw))
            weight[own] -= vw[v]
            weight[tgt] += vw[v]
            parts[v] = tgt
            moved += 1
        if moved == 0:
            break
    return parts
