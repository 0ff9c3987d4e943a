"""Level-synchronous breadth-first search (paper §3, ref [8]).

The kernel visits all vertices at one distance level in a single
vectorized phase, which the paper identifies as "particularly suitable
for small-world networks due to their low graph diameter".  Two
load-balancing policies are modeled, matching §3:

* ``degree_aware=True`` (default): frontier work is assigned by degree
  prefix sums and high-degree adjacencies are visited in parallel, so a
  phase's granularity is a single arc bundle;
* ``degree_aware=False``: oblivious static assignment, whose modeled
  phase time is inflated by the measured imbalance — the configuration
  the paper warns about.

The "lock-free" property of the C implementation corresponds here to
the benign-race claim: duplicate discoveries within one level are
resolved by a deterministic min-parent rule instead of locks, so the
cost model charges no lock events for BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.kernels._frontier import (
    GraphLike,
    expand,
    frontier_arc_indices,
    unwrap,
    vertex_ids,
)
from repro.kernels.segments import distinct, pair_order
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context

UNREACHED = -1

#: Soft cap on ``K * n`` state entries per batched traversal (each of
#: the distance/σ/δ planes is one ``(K, n)`` array of 8-byte scalars, so
#: this bounds the engine's working set to a few tens of MB).
BATCH_STATE_BUDGET = 1 << 21

#: Lane-count ceiling of the default batch.  It is a bound on batched
#: Brandes' ``(K, n)`` σ/δ planes, whose per-level work grows with K;
#: ``msbfs`` callers share the default, but ``msbfs`` itself is
#: word-parallel and its per-lane cost keeps falling up to
#: 64 lanes (DESIGN §10 has the measured K-sweep).
MAX_BATCH_LANES = 32

#: Lanes per ``msbfs`` word; the narrowest unsigned dtype that holds a
#: word's lane count carries its per-vertex bits.  Little-endian on any
#: host, so byte j of a word's uint8 view holds lanes 8j .. 8j+7.
_WORD_LANES = 64
_WORD_DTYPES = tuple(np.dtype(dt) for dt in ("u1", "<u2", "<u4", "<u8"))
_BIT_SHIFTS = np.arange(8, dtype=np.uint8)[:, None]

#: ``msbfs`` pulls once the frontier owns more than 1/_PULL_ARC_RATIO of
#: the arcs: a pull streams every arc through one gather + segmented
#: OR (~5 ns/arc measured), a push also builds the arc index list and
#: sorts by target (~40-60 ns/arc); the optimum is flat between 6 and 16.
_PULL_ARC_RATIO = 8


def default_batch_size(n_vertices: int) -> int:
    """Default lane count ``K`` for batched multi-source traversal.

    Large enough to amortize per-level NumPy dispatch over many sources,
    small enough that the ``(K, n)`` state planes stay cache-friendly.
    """
    if n_vertices <= 0:
        return 1
    return int(max(1, min(MAX_BATCH_LANES, BATCH_STATE_BUDGET // n_vertices)))


def source_batches(sources, batch_size: Optional[int], n_vertices: int) -> list:
    """Split a source list into contiguous batches of ``batch_size`` lanes."""
    srcs = vertex_ids(sources, n_vertices, "source")
    k = batch_size if batch_size is not None else default_batch_size(n_vertices)
    if k < 1:
        raise ValueError("batch_size must be >= 1")
    return [srcs[i : i + k] for i in range(0, srcs.shape[0], k)]


@dataclass
class BFSResult:
    """Distances (-1 = unreached), BFS-tree parents, and level count."""

    distances: np.ndarray
    parents: np.ndarray
    n_levels: int

    @property
    def reached(self) -> np.ndarray:
        """Boolean mask of vertices reached from the source."""
        return self.distances >= 0

    @property
    def n_reached(self) -> int:
        return int(np.count_nonzero(self.reached))


@algorithm("bfs", operands=1)
def bfs(
    g: GraphLike,
    source: int,
    *,
    ctx: Optional[ParallelContext] = None,
    max_depth: Optional[int] = None,
) -> BFSResult:
    """Level-synchronous BFS from ``source``.

    Works on directed and undirected graphs and on
    :class:`~repro.graph.csr.EdgeSubsetView` (deleted edges are not
    traversed).  ``max_depth`` bounds the search radius (used by the
    path-limited search paradigm).
    """
    graph, edge_active = unwrap(g)
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    [source] = vertex_ids([source], n, "source")
    dist = np.full(n, UNREACHED, dtype=np.int64)
    parent = np.full(n, UNREACHED, dtype=np.int64)
    dist[source] = 0
    parent[source] = source
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    degs_all = graph.degrees()
    tr = ctx.tracer
    ctx.cost.region()
    while frontier.shape[0]:
        if max_depth is not None and level >= max_depth:
            break
        sp = (
            tr.begin("level", depth=level, frontier=int(frontier.shape[0]))
            if tr
            else None
        )
        srcs, tgts, _ = expand(graph, frontier, edge_active)
        # Record this level as one barrier-separated phase.
        ctx.cost.phase_from_work(degs_all[frontier])
        arcs = int(tgts.shape[0])
        fresh = dist[tgts] == UNREACHED
        tgts, srcs = tgts[fresh], srcs[fresh]
        if tgts.shape[0]:
            # Deterministic benign-race resolution: the smallest parent
            # claims each duplicate target (first occurrence after sort).
            order = pair_order(tgts, srcs, n)
            tgts, srcs = tgts[order], srcs[order]
            first = np.empty(tgts.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(tgts[1:], tgts[:-1], out=first[1:])
            nxt = tgts[first]
            dist[nxt] = level + 1
            parent[nxt] = srcs[first]
        else:
            nxt = tgts
        if sp is not None:
            tr.end(sp, arcs=arcs, discovered=int(nxt.shape[0]))
        if nxt.shape[0] == 0:
            break
        frontier = nxt
        level += 1
    return BFSResult(dist, parent, level)


def bfs_distances(
    g: GraphLike, source: int, *, ctx: Optional[ParallelContext] = None
) -> np.ndarray:
    """Distance array only (convenience wrapper)."""
    return bfs(g, source, ctx=ctx).distances


@dataclass
class MSBFSResult:
    """Batched multi-source BFS: one distance row per source lane."""

    sources: np.ndarray
    distances: np.ndarray  # shape (K, n); -1 = unreached on that lane
    n_levels: int

    @property
    def reached(self) -> np.ndarray:
        """Boolean ``(K, n)`` mask of vertices reached per lane."""
        return self.distances >= 0


@algorithm("msbfs", operands=1)
def msbfs(
    g: GraphLike,
    sources,
    *,
    ctx: Optional[ParallelContext] = None,
    max_depth: Optional[int] = None,
) -> MSBFSResult:
    """Level-synchronous BFS from ``K`` sources simultaneously.

    Word-parallel: each vertex carries one machine word of lane bits
    (bit ``k`` set = lane ``k`` has reached it), so all lanes of a word
    share a single pass over the arcs per level instead of one arc
    gather per (lane, vertex) pair.  More than 64 sources traverse as
    consecutive words writing into the one ``(K, n)`` output.  Lanes
    are fully independent: ``result.distances[k]`` equals
    ``bfs(g, sources[k]).distances`` exactly, duplicate sources
    included.
    """
    graph, edge_active = unwrap(g)
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    srcs = vertex_ids(sources, n, "source")
    k = srcs.shape[0]
    dist = np.full((k, n), UNREACHED, dtype=np.int32)
    push, pull = _arc_steps(graph, edge_active, ctx)
    n_levels = 0
    ctx.cost.region()
    for lo in range(0, k, _WORD_LANES):
        rows = dist[lo : lo + _WORD_LANES]
        start = _seed_lane_words(srcs[lo : lo + _WORD_LANES], rows)
        depth = _msbfs_word(
            (*start, 0), rows, push, pull, graph.degrees(), graph.n_arcs,
            max_depth, ctx.tracer,
        )
        n_levels = max(n_levels, depth)
    return MSBFSResult(srcs, dist, n_levels)


def _seed_lane_words(srcs: np.ndarray, dist: np.ndarray):
    """Start one word of lanes: distance 0 in the ``(lanes, n)`` rows
    ``dist`` and lane bit ``k`` at ``srcs[k]``.  Returns ``(seen, verts,
    words)`` — the per-vertex lane words and the level-0 frontier."""
    kw = srcs.shape[0]
    word = next(dt for dt in _WORD_DTYPES if kw <= 8 * dt.itemsize)
    lane_ids = np.arange(kw, dtype=np.int64)
    dist[lane_ids, srcs] = 0
    seen = np.zeros(dist.shape[1], dtype=word)
    np.bitwise_or.at(seen, srcs, (1 << lane_ids.astype(np.uint64)).astype(word))
    verts = distinct(srcs)
    return seen, verts, seen.take(verts)


def _or_by_target(tgt: np.ndarray, got: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OR the lane words landing on each target: ``(target, word)`` arc
    pairs in, ``(distinct targets ascending, OR-ed words)`` out."""
    # Method-form calls and inline run heads (not the np.* wrappers /
    # segments.group_offsets): wrapper overhead is ~a third of a
    # two-vertex level, and a long path is nothing but such levels.
    order = tgt.argsort()
    tgt, got = tgt.take(order), got.take(order)
    head = np.empty(tgt.shape[0], dtype=bool)
    head[:1] = True
    np.not_equal(tgt[1:], tgt[:-1], out=head[1:])
    heads = head.nonzero()[0]
    return tgt.take(heads), np.bitwise_or.reduceat(got, heads)


def _claim_new(seen, tgt, got) -> tuple[np.ndarray, np.ndarray]:
    """Mask ``(target, word)`` pairs with ``~seen``, OR what is left per
    target and mark it seen: the next frontier ``(verts, words)``."""
    got &= ~seen.take(tgt)
    hit = got.nonzero()[0]
    verts, words = _or_by_target(tgt.take(hit), got.take(hit))
    seen[verts] = seen.take(verts) | words
    return verts, words


def _claim_dense(seen, fresh, dist, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The pull-level claim: keep the lanes of the dense per-vertex
    words ``fresh`` that ``seen`` lacks, mark them seen and write
    ``depth`` into the ``(lanes, n)`` distance rows ``dist`` at each of
    them.  Returns the next frontier ``(verts, words)``.

    The rows are written one lane byte at a time as 0/1 bit planes
    (unreached entries are -1, so adding ``plane * (depth + 1)`` writes
    ``depth``): the transient is an ``(8, n)`` plane per lane byte,
    never a ``(lanes, n)`` one.
    """
    fresh &= ~seen
    seen |= fresh
    verts = np.flatnonzero(fresh)
    words = fresh.take(verts)
    n = fresh.shape[0]
    lane_bytes = np.ascontiguousarray(
        fresh.view(np.uint8).reshape(n, fresh.itemsize).T
    )
    for lo in range(0, dist.shape[0], 8):
        rows = dist[lo : lo + 8]
        planes = (lane_bytes[lo >> 3] >> _BIT_SHIFTS[: rows.shape[0]]) & 1
        rows += np.multiply(planes, depth + 1, dtype=np.int32)
    return verts, words


def _scatter_new_lanes(dist_flat, n: int, verts, words, depth: int) -> int:
    """Write ``depth`` into the flat ``(lanes, n)`` distance plane at
    every ``(lane, verts[i])`` whose bit is set in ``words[i]``; returns
    how many entries that was."""
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    pos, lanes = np.divmod(bits.view(np.bool_).nonzero()[0], 8 * words.itemsize)
    dist_flat[lanes * n + verts.take(pos)] = depth
    return int(pos.shape[0])


def _arc_steps(graph, edge_active, ctx):
    """In-core ``msbfs``'s level steps ``(push, pull)`` over the CSR
    arcs.  Each charges its level to ``ctx`` as one barrier-separated
    phase and drops the arcs of masked-out edges.  ``push`` gathers the
    frontier's arcs, O(frontier arcs); ``pull`` streams every arc once
    through ``bitwise_or.reduceat``, and is ``None`` on a directed graph
    (``v`` joins on an arc into it, not one of its own).
    """
    offsets, targets = graph.offsets, graph.targets
    degs_all = graph.degrees()

    def push(verts, words):
        arc_idx, degs = frontier_arc_indices(graph, verts)
        ctx.cost.phase_from_work(degs)
        tgt = targets.take(arc_idx)
        got = words.repeat(degs)
        if edge_active is not None:
            live = edge_active.take(graph.arc_edge_ids.take(arc_idx)).nonzero()[0]
            tgt, got = tgt.take(live), got.take(live)
        return tgt, got

    if graph.directed:
        return push, None
    seg_verts = seg_starts = dead = None  # built on the first pull

    def pull(frontier, seen):
        nonlocal seg_verts, seg_starts, dead
        ctx.cost.phase_from_work(degs_all)
        if seg_verts is None:
            # reduceat misreads empty segments; reduce only the non-empty
            # ones (their starts still delimit exactly).
            seg_verts = np.flatnonzero(degs_all)
            seg_starts = offsets.take(seg_verts)
            if edge_active is not None:
                dead = np.flatnonzero(~edge_active.take(graph.arc_edge_ids))
        got = frontier.take(targets)
        if dead is not None:
            got[dead] = 0
        fresh = np.zeros(frontier.shape[0], dtype=frontier.dtype)
        fresh[seg_verts] = np.bitwise_or.reduceat(got, seg_starts)
        return fresh

    return push, pull


def _msbfs_word(start, dist, push, pull, degs_all, n_arcs, max_depth,
                tracer=None, on_level=None) -> int:
    """The msbfs level loop: traverse one word of lanes from ``start``
    = ``(seen, verts, words, level)`` into its ``(lanes, n)`` distance
    rows ``dist``; returns the deepest level reached.

    ``seen[v]`` holds the lanes that have reached ``v``; the frontier is
    ``verts``, the vertices newly reached at ``level``, with their
    new-lane ``words``.  Each level picks a direction from the
    frontier's arc count.  A push claims the ``(target, word)`` pairs
    ``push(verts, words)`` returns (OR per target, mask ``~seen``,
    scatter the new bits' distances), so a sparse level costs
    O(frontier arcs), never O(n).  A pull (``pull`` is ``None`` on
    directed graphs) claims the dense words ``pull(frontier, seen)``
    returns for the dense frontier.  The steps do the arc work (in core
    :func:`_arc_steps`, sharded a superstep each); the loop owns the
    direction rule, both claims, the ``level`` span on ``tracer`` and
    the stops, and hands each claimed frontier to ``on_level(level,
    verts, words)``.
    """
    seen, verts, words, level = start
    n = seen.shape[0]
    dist_flat = dist.reshape(-1)
    while verts.shape[0] and (max_depth is None or level < max_depth):
        f_arcs = int(degs_all.take(verts).sum())
        dense = pull is not None and f_arcs * _PULL_ARC_RATIO > n_arcs
        sp = tracer.begin(
            "level", depth=level, frontier=int(verts.shape[0]),
            direction="pull" if dense else "push",
        ) if tracer else None
        nxt = level + 1
        if dense:
            frontier = np.zeros(n, dtype=seen.dtype)
            frontier[verts] = words
            verts, words = _claim_dense(seen, pull(frontier, seen), dist, nxt)
            arcs = n_arcs
            discovered = 0 if sp is None else int(
                np.unpackbits(words.view(np.uint8)).sum())
        else:
            tgt, got = push(verts, words)
            arcs = int(tgt.shape[0])
            verts, words = _claim_new(seen, tgt, got)
            del tgt, got  # the level's arc pairs: not held into later levels
            discovered = _scatter_new_lanes(dist_flat, n, verts, words, nxt)
        if sp is not None:
            tracer.end(sp, arcs=arcs, discovered=discovered)
        if verts.shape[0] == 0:
            break
        level = nxt
        if on_level is not None:
            on_level(level, verts, words)
    return level


@algorithm("st_connectivity", operands=2)
def st_connectivity(
    g: GraphLike,
    s: int,
    t: int,
    *,
    ctx: Optional[ParallelContext] = None,
) -> bool:
    """Bidirectional BFS reachability test between ``s`` and ``t``.

    Expands the smaller frontier each step — the st-connectivity
    optimization of Bader–Madduri [8].  For directed graphs the
    backward search uses the transpose.
    """
    graph, edge_active = unwrap(g)
    ctx = ensure_context(ctx)
    n = graph.n_vertices
    s, t = vertex_ids([s, t], n)
    if s == t:
        return True
    if graph.directed and edge_active is not None:
        # Edge masks index the forward graph's edge ids; the transpose
        # renumbers them, so fall back to a forward-only search.
        return bool(bfs(g, s, ctx=ctx).distances[t] >= 0)
    fwd_graph = graph
    bwd_graph = graph.reverse() if graph.directed else graph
    # owner: 0 = untouched, 1 = forward tree, 2 = backward tree
    owner = np.zeros(n, dtype=np.int8)
    owner[s], owner[t] = 1, 2
    f_front = np.asarray([s], dtype=np.int64)
    b_front = np.asarray([t], dtype=np.int64)
    degs_f = fwd_graph.degrees()
    degs_b = bwd_graph.degrees()
    ctx.cost.region()
    while f_front.shape[0] and b_front.shape[0]:
        forward = degs_f[f_front].sum() <= degs_b[b_front].sum()
        gph = fwd_graph if forward else bwd_graph
        front = f_front if forward else b_front
        mine, other = (1, 2) if forward else (2, 1)
        ctx.cost.phase_from_work((degs_f if forward else degs_b)[front])
        _, tgts, _ = expand(gph, front, edge_active)
        if tgts.shape[0] and np.any(owner[tgts] == other):
            return True
        fresh = distinct(tgts[owner[tgts] == 0]) if tgts.shape[0] else tgts
        owner[fresh] = mine
        if forward:
            f_front = fresh
        else:
            b_front = fresh
    return False
