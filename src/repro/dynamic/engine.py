"""Streaming ingestion engine: batches in, incremental analytics out.

The engine applies timestamped edge batches and maintains per-batch
analytics *incrementally* instead of recomputing from scratch.  Its one
edge set is the last published CSR plus the net delta since
(``_added``/``_deleted``): an event applies iff its edge is in
``_added``, or in the CSR's sorted row and not in ``_deleted``, and
:meth:`StreamEngine.snapshot` merges the delta into that CSR
(:func:`~repro.graph.builder.merge_edges`: array passes, no sort).

* **components** — a :class:`~repro.dynamic.components.UnionFind` of
  labels (canonical min-vertex labels, bit-identical to the batch
  kernel; after a batch that deletes, reset from that kernel run on the
  snapshot instead of a union over every surviving edge);
* **stats** — exact triangle/wedge/clustering counts at batch cost:
  the triangles holding a net-added edge of the merged CSR, less those
  holding a net-deleted edge of the previous one, each counted once
  from its lowest-keyed changed edge; wedges are Σ C(deg, 2);
* **degree** — an integer degree array updated per edge, top-k scored
  with the same op order as
  :func:`~repro.centrality.degree.degree_centrality`;
* **closeness** — per-vertex cache with *component-level invalidation*:
  after a batch, only vertices in the (new) components of touched
  endpoints can have changed — a new component containing no touched
  vertex was a whole old component with an identical edge set, so its
  cached values remain exact.  Only invalidated sources are re-solved;
* **community** — labels repaired by
  :func:`~repro.community.resweep.local_resweep` seeded around the
  touched set, instead of full re-clustering.

:meth:`StreamEngine.from_graph` seeds all of these from a CSR with the
batch kernels, building no per-edge event.  Every :class:`BatchResult`
carries a CRC-32 checksum over its result arrays, which the
prefix-differential harness (:mod:`repro.qa.prefix`), the
chaos-recovery tests, and backend-parity tests compare bit-for-bit.

The engine keeps no batch history: a caller that needs one logs the
batches it applies (``repro stream --checkpoint-dir`` keeps one record
per batch and replays them batch by batch, since community repair is
cadence-sensitive).  :meth:`StreamEngine.state` is the engine's whole
state in one piece, for the daemon's compacted log.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext as _noop
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.dynamic.components import UnionFind
from repro.dynamic.events import EdgeEvent, group_batches
from repro.dynamic.sources import crawl_events
from repro.errors import GraphStructureError
from repro.graph import builder
from repro.graph.csr import Graph
from repro.kernels.segments import (
    _probe_segments, _segment_keys, chunk_bounds, distinct,
)
from repro.obs.api import algorithm
from repro.parallel.runtime import ParallelContext, ensure_context

__all__ = [
    "ANALYTICS",
    "BatchResult",
    "StreamEngine",
    "StreamReplayResult",
    "stream_replay",
]

ANALYTICS = ("components", "stats", "degree", "closeness", "community")

def top_k(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Top-``k`` (vertex, score) pairs, ties broken by smaller id."""
    n = scores.shape[0]
    if n == 0 or k <= 0:
        return []
    order = np.lexsort((np.arange(n), -scores))[: min(k, n)]
    return [(int(v), float(scores[v])) for v in order]


def _crc(crc: int, arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)


#: Probe queries per intersection block of :func:`_triangles_through`:
#: about a dozen int64 temporaries of this length (~0.8 MB).
PROBE_BLOCK = 1 << 13


def _has_edges(g: Graph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each ``(u[i], v[i])`` is an edge of ``g``: a binary
    search for ``v[i]`` in row ``u[i]``, every row in step (a batch's
    lookups at numpy cost, not one ``Graph.has_edge`` call each)."""
    if not g.n_arcs:
        return np.zeros(u.shape[0], dtype=bool)
    tg = g.targets
    lo, end = g.offsets[u], g.offsets[u + 1]
    hi = end.copy()
    while True:
        open_ = lo < hi
        if not open_.any():
            return (lo < end) & (tg.take(lo, mode="clip") == v)
        mid = (lo + hi) >> 1
        below = open_ & (tg.take(mid, mode="clip") < v)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(open_ & ~below, mid, hi)


def _keys(pairs: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    """Ascending ``u·n + v`` keys of ``(u, v)`` pairs."""
    uv = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return np.sort(uv[:, 0] * n + uv[:, 1])


def _triangles_through(g: Graph, keys: np.ndarray) -> int:
    """Triangles of ``g`` holding at least one of its edges ``keys``
    (ascending ``u·n + v``, ``u < v``), each counted once: from its
    lowest-keyed edge among ``keys``."""
    if not keys.shape[0]:
        return 0
    n = g.n_vertices
    u, v = np.divmod(keys, n)
    deg = np.diff(g.offsets)
    seg, stride = _segment_keys(g.offsets, g.targets)
    bounds = chunk_bounds(np.minimum(deg[u], deg[v]), PROBE_BLOCK)
    total = 0
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        _, w, i = _probe_segments(
            g.offsets, g.targets, seg, stride, u[b0:b1], v[b0:b1]
        )
        i += b0
        first = np.ones(w.shape[0], dtype=bool)
        for x in (u[i], v[i]):  # the triangle's other two edges
            other = np.minimum(x, w) * n + np.maximum(x, w)
            at = np.searchsorted(keys, other)
            first &= (at > i) | (keys.take(at, mode="clip") != other)
        total += int(np.count_nonzero(first))
    return total


@dataclass(frozen=True)
class BatchResult:
    """Analytics snapshot after applying one ingestion batch."""

    t: int
    n_events: int
    n_applied: int
    n_edges: int
    labels: Optional[np.ndarray] = None
    n_components: Optional[int] = None
    n_triangles: Optional[int] = None
    n_wedges: Optional[int] = None
    global_clustering: Optional[float] = None
    degree_topk: Optional[list[tuple[int, float]]] = None
    closeness_topk: Optional[list[tuple[int, float]]] = None
    community_labels: Optional[np.ndarray] = None
    modularity: Optional[float] = None
    checksum: int = 0

    def summary(self) -> dict[str, Any]:
        """The JSON fields: everything but the two label arrays."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("labels", "community_labels")
        }


class StreamEngine:
    """Applies edge batches and maintains incremental analytics."""

    def __init__(
        self,
        n_vertices: int,
        *,
        analytics: Sequence[str] = ("components", "stats", "degree"),
        k: int = 10,
        resweep_passes: int = 16,
        resweep_radius: int = 1,
        ctx: Optional[ParallelContext] = None,
    ) -> None:
        for a in analytics:
            if a not in ANALYTICS:
                raise ValueError(
                    f"unknown analytic {a!r}; choose from {ANALYTICS}"
                )
        self.n_vertices = int(n_vertices)
        self.analytics = tuple(analytics)
        self.k = int(k)
        self.resweep_passes = int(resweep_passes)
        self.resweep_radius = int(resweep_radius)
        self.ctx = ensure_context(ctx)
        n = self.n_vertices

        self._cc = UnionFind(n)
        empty = np.empty(0, dtype=np.int64)
        self._snap = builder.from_edge_array(n, empty, empty, dedupe=False)
        self._added: dict[tuple[int, int], float] = {}
        self._deleted: set[tuple[int, int]] = set()
        # With stats on, every batch that applies merges the delta, so
        # a batch starts from an empty one (see _fold_events).
        self._tri: Optional[int] = 0 if "stats" in self.analytics else None
        self._deg = np.zeros(n, dtype=np.int64)
        # Closeness cache: all-zero is exact for the initial edgeless
        # graph, so the cache starts fully valid.
        self._clo = np.zeros(n, dtype=np.float64)
        self._community = np.arange(n, dtype=np.int64)
        self._modularity = 0.0
        self.n_batches = 0  # batches applied, a from_graph seed included

    # ------------------------------------------------------------------
    @property
    def n_edges(self) -> int:
        # a deleted-then-re-added CSR edge sits in both halves of the delta
        return self._snap.n_edges + len(self._added) - len(self._deleted)

    def snapshot(self) -> Graph:
        """The current edge set as a canonical CSR graph: the last one
        with the net delta since merged in, cached until an event applies."""
        if self._added or self._deleted:
            add = np.array(list(self._added), dtype=np.int64).reshape(-1, 2)
            gone = np.array(list(self._deleted), dtype=np.int64).reshape(-1, 2)
            w = np.fromiter(self._added.values(), np.float64, len(self._added))
            self._snap = builder.merge_edges(self._snap, (*add.T, w), gone.T)
            self._added, self._deleted = {}, set()
        return self._snap

    # ------------------------------------------------------------------
    def apply_batch(self, events: Sequence[EdgeEvent]) -> BatchResult:
        """Apply one batch of events, refresh analytics, return results.

        A batch with an out-of-range (non-loop) event is refused whole.
        """
        events = list(events)
        if not events:
            raise GraphStructureError("cannot apply an empty batch")
        tr = self.ctx.tracer
        with (
            tr.span(
                "stream.batch",
                batch_index=self.n_batches,
                n_events=len(events),
            )
            if tr
            else _noop()
        ):
            touched, n_applied = self._fold_events(events)
            result = self._result(int(events[0].t), len(events), n_applied, touched)
        self.n_batches += 1
        return result

    def _fold_events(self, events: list[EdgeEvent]) -> tuple[np.ndarray, int]:
        """Fold ``events`` into the edge set, degrees, union–find and
        triangle count; returns the touched vertices (ascending) and the
        number of events that applied."""
        n = self.n_vertices
        keys = [ev.key for ev in events]
        ends = np.array(keys, dtype=np.int64).reshape(-1, 2)
        lo, hi = ends[:, 0], ends[:, 1]
        live = lo != hi  # self-loops carry no structure here
        bad = live & ((lo < 0) | (hi >= n))
        if bad.any():
            raise GraphStructureError(
                f"event vertex out of range [0, {n}): {events[int(bad.argmax())]}"
            )
        in_snap = np.zeros(len(events), dtype=bool)
        in_snap[live] = _has_edges(self._snap, lo[live], hi[live])
        added, deleted, union = self._added, self._deleted, self._cc.union
        sign = [0] * len(events)
        for i, (ev, key, is_live, old) in enumerate(
            zip(events, keys, live.tolist(), in_snap.tolist())
        ):
            if not is_live:
                continue
            present = key in added or (old and key not in deleted)
            if ev.kind == "add":
                if present:
                    continue
                added[key] = ev.weight
                union(*key)
                sign[i] = 1
            else:
                if not present:
                    continue
                if added.pop(key, None) is None:
                    deleted.add(key)
                sign[i] = -1
        if self._snap.weights is None and any(
            ev.weight != 1.0 for ev, d in zip(events, sign) if d > 0
        ):  # the first non-unit weight: the snapshot is weighted from now on
            s = self._snap
            self._snap = Graph(s.offsets, s.targets, directed=False,
                               weights=np.ones(s.n_arcs), arc_edge_ids=s.arc_edge_ids,
                               n_edges=s.n_edges, validate=False)
        delta = np.asarray(sign, dtype=np.int64)
        applied = delta != 0
        for end in (lo, hi):
            np.add.at(self._deg, end[applied], delta[applied])
        n_applied = int(np.count_nonzero(applied))
        if self._tri is not None and n_applied:
            # the delta is this batch's alone; merging it ends the batch
            gone = _keys(deleted.difference(added), n)
            new = _keys(added.keys() - deleted, n)
            old_snap = self._snap
            self._tri += self._tri_delta(old_snap, self.snapshot(), gone, new)
        if (delta < 0).any():  # the kernel on the snapshot, not a union per edge
            from repro.kernels.connected import connected_components

            self._cc.assign_labels(
                connected_components(self.snapshot(), ctx=self.ctx)
            )
        return distinct(ends[applied]), n_applied

    def _tri_delta(
        self, old: Graph, new: Graph, gone: np.ndarray, add: np.ndarray
    ) -> int:
        """T_after − T_before: the triangles of ``new`` holding an edge
        of ``add``, less those of ``old`` holding an edge of ``gone``."""
        return _triangles_through(new, add) - _triangles_through(old, gone)

    def _result(
        self, t: int, n_events: int, n_applied: int, touched: np.ndarray
    ) -> BatchResult:
        """Refresh the selected analytics and fold them into a result."""
        n = self.n_vertices
        tr = self.ctx.tracer
        kw: dict[str, Any] = {}
        crc = 0
        labels: Optional[np.ndarray] = None
        if "components" in self.analytics:
            with tr.span("stream.components") if tr else _noop():
                labels = self._cc.labels()
            kw["labels"] = labels
            kw["n_components"] = self._cc.n_components
            crc = _crc(crc, labels)
        if self._tri is not None:
            with tr.span("stream.stats") if tr else _noop():
                d = self._deg
                wedges = int((d * (d - 1)).sum()) // 2
                kw["n_triangles"] = self._tri
                kw["n_wedges"] = wedges
                kw["global_clustering"] = (
                    3.0 * self._tri / wedges if wedges else 0.0
                )
            crc = _crc(crc, np.asarray([self._tri, wedges], dtype=np.int64))
            crc = _crc(
                crc, np.asarray([kw["global_clustering"]], dtype=np.float64)
            )
        if "degree" in self.analytics:
            with tr.span("stream.degree") if tr else _noop():
                scores = self._deg.astype(np.float64)
                if n > 1:
                    scores /= n - 1
                kw["degree_topk"] = top_k(scores, self.k)
            crc = _crc(crc, scores)
        if "closeness" in self.analytics:
            with (
                tr.span("stream.closeness") if tr else _noop()
            ):
                self._refresh_closeness(touched)
                kw["closeness_topk"] = top_k(self._clo, self.k)
            crc = _crc(crc, self._clo)
        if "community" in self.analytics and n > 0:
            with tr.span("stream.community") if tr else _noop():
                self._refresh_community(touched)
            kw["community_labels"] = self._community.copy()
            kw["modularity"] = self._modularity
            crc = _crc(crc, self._community)
            crc = _crc(crc, np.asarray([self._modularity], dtype=np.float64))

        return BatchResult(
            t=t,
            n_events=n_events,
            n_applied=n_applied,
            n_edges=self.n_edges,
            checksum=crc,
            **kw,
        )

    # ------------------------------------------------------------------
    def _refresh_closeness(self, touched: np.ndarray) -> None:
        """Re-solve only sources whose component a touched vertex joined.

        Invalidation rule: a vertex's closeness can change only if its
        *new* component contains a touched endpoint — otherwise that
        component is an old component with an identical edge set (any
        edge added to it or deleted from its boundary would have put a
        touched endpoint inside), so the cached value is still exact.
        """
        if not touched.shape[0] or self.n_vertices == 0:
            return
        from repro.centrality.closeness import closeness_centrality

        cc_labels = self._cc.labels()
        hot = distinct(cc_labels[touched])
        invalid = np.nonzero(np.isin(cc_labels, hot))[0]
        fresh = closeness_centrality(
            self.snapshot(), sources=invalid.tolist(), ctx=self.ctx
        )
        self._clo[invalid] = fresh[invalid]

    def _refresh_community(self, touched: np.ndarray) -> None:
        """Repair the partition locally; escalate if repair falls behind.

        The localized re-sweep is the fast path and usually wins (warm
        start + full settle), but a warm start can trap the partition
        in a local optimum a fresh run escapes.  So the engine also runs
        a fresh single-level pLA and keeps the higher-Q partition — ties
        prefer the repair, preserving label continuity across batches.
        This makes the harness invariant *modularity ≥ full single-level
        re-run* unconditional rather than empirical.
        """
        from repro.community.pla import pla
        from repro.community.resweep import local_resweep

        if not touched.shape[0]:
            return
        snap = self.snapshot()
        res = local_resweep(
            snap,
            labels=self._community,
            touched=touched,
            radius=self.resweep_radius,
            max_passes=self.resweep_passes,
            ctx=self.ctx,
        )
        labels, q = res.labels, float(res.modularity)
        if snap.n_arcs > 0:
            full = pla(snap, seed=0, ctx=self.ctx)
            if float(full.modularity) > q:
                labels = np.unique(full.labels, return_inverse=True)[1]
                q = float(full.modularity)
        self._community = np.asarray(labels, dtype=np.int64)
        self._modularity = q

    # ------------------------------------------------------------------
    def _config(self) -> dict[str, Any]:
        """Every setting that shapes the per-batch results."""
        return {
            "n_vertices": self.n_vertices,
            "analytics": list(self.analytics),
            "k": self.k,
            "resweep_passes": self.resweep_passes,
            "resweep_radius": self.resweep_radius,
        }

    def state(self) -> dict:
        """Everything that shapes later batches, as one picklable dict.

        :meth:`from_state` rebuilds an engine whose next batches carry
        the same checksums as this one's would (a tier-1 test holds
        this with every analytic on).  Only the execution context is
        left out.  The dict shares the engine's objects: pickle it
        before the engine applies another batch.
        """
        return {k: v for k, v in vars(self).items() if k != "ctx"}

    @classmethod
    def from_state(
        cls, state: dict, *, ctx: Optional[ParallelContext] = None
    ) -> "StreamEngine":
        """The engine :meth:`state` described, running on ``ctx``."""
        engine = cls.__new__(cls)
        vars(engine).update(state)
        engine.ctx = ensure_context(ctx)
        return engine

    @classmethod
    def from_graph(cls, graph: Graph, **kwargs: Any) -> "StreamEngine":
        """Seed an engine with an existing graph as one ``t=0`` batch.

        The batch is the graph's ``u < v`` arcs as adds in CSR order
        (parallel edges keep their first weight, self-loops are
        skipped), but no event is built: the snapshot comes from the
        CSR, sharing its rows when the graph is simple, and the labels,
        degrees and triangle count from the batch kernels.
        """
        from repro.kernels.connected import connected_components

        g = graph.as_undirected() if graph.directed else graph
        engine = cls(g.n_vertices, **kwargs)
        n_events = int(np.count_nonzero(g.arc_sources() < g.targets))
        if not n_events:
            return engine
        tr = engine.ctx.tracer
        with (
            tr.span("stream.batch", batch_index=0, n_events=n_events)
            if tr
            else _noop()
        ):
            # the kernel first: its workspace is the seed's largest
            engine._cc.assign_labels(connected_components(g, ctx=engine.ctx))
            engine._snap, key = _seed_snapshot(g, engine._snap)
            engine._deg = np.diff(engine._snap.offsets)
            if engine._tri is not None:
                engine._tri = _triangles_through(engine._snap, key)
            # for its closeness and community refresh; the row is dropped
            engine._result(0, n_events, int(key.shape[0]),
                           np.flatnonzero(engine._deg))
        engine.n_batches = 1
        return engine


def _seed_snapshot(g: Graph, empty: Graph) -> tuple[Graph, np.ndarray]:
    """The canonical CSR of undirected ``g``'s edge set (parallel edges
    keep their first weight, self-loops are dropped, unweighted if every
    weight is 1) and its ascending edge keys.  A simple ``g`` lends its rows: each arc's edge id is
    then the rank of its ``(min, max)`` key."""
    n = g.n_vertices
    src, tgt = g.arc_sources(), g.targets
    fwd = np.flatnonzero(src < tgt)
    key = src[fwd] * n + tgt[fwd]
    w = g.weights[fwd] if g.is_weighted else None
    if 2 * fwd.shape[0] != g.n_arcs or not (key[1:] > key[:-1]).all():
        key, first = np.unique(key, return_index=True)
        u, v = np.divmod(key, n)
        add = (u, v, np.ones(key.shape[0]) if w is None else w[first])
        gone = (key[:0], key[:0])
        return builder.merge_edges(empty, add, gone), key
    eid = np.minimum(src, tgt)
    eid *= n
    eid += np.maximum(src, tgt)
    eid = np.searchsorted(key, eid)
    snap = Graph(g.offsets, g.targets, directed=False,
                 weights=None if g.has_unit_weights else w[eid],
                 arc_edge_ids=eid, n_edges=key.shape[0], validate=False)
    return snap, key


# ---------------------------------------------------------------------------
# stream_replay: the registered streaming entrypoint
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StreamReplayResult:
    """Final state and per-batch audit trail of a crawler replay."""

    n_batches: int
    n_edges: int
    labels: np.ndarray  # final connected-component labels
    n_components: int
    n_triangles: int
    n_wedges: int
    global_clustering: float
    batch_checksums: np.ndarray  # int64, one CRC per applied batch
    degree_topk: list[tuple[int, float]] = field(default_factory=list)
    closeness_topk: list[tuple[int, float]] = field(default_factory=list)
    community_labels: Optional[np.ndarray] = None
    modularity: Optional[float] = None


@algorithm("stream_replay")
def stream_replay(
    graph: Graph,
    *,
    policy: str = "bfs",
    batch_size: int = 8,
    max_batches: Optional[int] = None,
    analytics: Sequence[str] = ("components", "stats", "degree"),
    k: int = 8,
    resweep_passes: int = 8,
    resweep_radius: int = 1,
    rng: Optional[np.random.Generator] = None,
    ctx: Optional[ParallelContext] = None,
) -> StreamReplayResult:
    """Reveal ``graph`` through a crawler and maintain analytics live.

    The graph plays the *hidden* network; a seeded crawler
    (:func:`~repro.dynamic.sources.crawl_events`) emits add-event
    batches, and a :class:`StreamEngine` ingests them.  Deterministic
    given ``seed``/``rng``, so serial/thread/process backends produce
    identical per-batch checksums — the backend-parity suite asserts
    exactly that.
    """
    ctx = ensure_context(ctx)
    events = crawl_events(
        graph,
        policy=policy,
        batch_size=batch_size,
        max_batches=max_batches,
        rng=rng,
    )
    engine = StreamEngine(
        graph.n_vertices,
        analytics=analytics,
        k=k,
        resweep_passes=resweep_passes,
        resweep_radius=resweep_radius,
        ctx=ctx,
    )
    checksums, last = [], None
    for batch in group_batches(events):
        last = engine.apply_batch(batch)
        checksums.append(last.checksum)
    return StreamReplayResult(
        n_batches=len(checksums),
        n_edges=engine.n_edges,
        labels=engine._cc.labels(),
        n_components=engine._cc.n_components,
        n_triangles=getattr(last, "n_triangles", None) or 0,
        n_wedges=getattr(last, "n_wedges", None) or 0,
        global_clustering=getattr(last, "global_clustering", None) or 0.0,
        batch_checksums=np.asarray(checksums, dtype=np.int64),
        degree_topk=(last.degree_topk or []) if last else [],
        closeness_topk=(last.closeness_topk or []) if last else [],
        community_labels=last.community_labels if last else None,
        modularity=last.modularity if last else None,
    )
