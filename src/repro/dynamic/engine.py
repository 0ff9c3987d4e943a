"""Streaming ingestion engine: batches in, incremental analytics out.

The engine applies timestamped edge batches and maintains per-batch
analytics *incrementally* instead of recomputing from scratch.  It
keeps no adjacency of its own: the components' canonical edge set
decides whether an event applies, and :meth:`StreamEngine.snapshot`
merges the net delta since the last snapshot into that CSR
(:func:`~repro.graph.builder.merge_edges`: array passes, no sort).

* **components** — :class:`~repro.dynamic.components.IncrementalComponents`
  (union–find; canonical min-vertex labels, bit-identical to the batch
  kernel; after a batch that deletes, reset from that kernel run on the
  snapshot instead of a union over every surviving edge);
* **stats** — :class:`~repro.dynamic.stream.StreamingStats` (exact
  triangle/wedge/clustering counters, O(deg) per update);
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

Every :class:`BatchResult` carries a CRC-32 checksum over its result
arrays, which the prefix-differential harness (:mod:`repro.qa.prefix`),
the chaos-recovery tests, and backend-parity tests compare bit-for-bit.

A checkpoint is a :class:`~repro.durable.RecordLog` with one record
per applied batch (batches, not a flat event log — adjacent batches may
share a timestamp after truncation, and community repair is
cadence-sensitive), so :meth:`StreamEngine.resume` replays
batch-by-batch and lands on the exact same state, checksums included.
:meth:`StreamEngine.state` is the same state in one piece, for the
daemon's compacted log.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext as _noop
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from repro.dynamic.components import IncrementalComponents
from repro.dynamic.events import EdgeEvent, group_batches
from repro.dynamic.sources import crawl_events
from repro.dynamic.stream import StreamingStats
from repro.durable import RecordLog
from repro.errors import GraphStructureError
from repro.graph import builder
from repro.graph.csr import Graph
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

#: ``RecordLog`` kind of durable stream checkpoints (DESIGN §13).
STREAM_CHECKPOINT_KIND = "stream-checkpoint"


def top_k(scores: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Top-``k`` (vertex, score) pairs, ties broken by smaller id."""
    n = scores.shape[0]
    if n == 0 or k <= 0:
        return []
    order = np.lexsort((np.arange(n), -scores))[: min(k, n)]
    return [(int(v), float(scores[v])) for v in order]


def _crc(crc: int, arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)


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
        window: int = 1024,
        resweep_passes: int = 16,
        resweep_radius: int = 1,
        community_escalate: bool = True,
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
        self.window = int(window)
        self.resweep_passes = int(resweep_passes)
        self.resweep_radius = int(resweep_radius)
        self.community_escalate = bool(community_escalate)
        self.ctx = ensure_context(ctx)
        n = self.n_vertices

        # its edge set decides whether an event applies
        self._cc = IncrementalComponents(n)
        empty = np.empty(0, dtype=np.int64)
        self._snap = builder.from_edge_array(
            n, empty, empty, weights=empty.astype(np.float64), dedupe=False
        )
        self._added: dict[tuple[int, int], float] = {}
        self._deleted: set[tuple[int, int]] = set()
        self._stats = (
            StreamingStats(n, window=self.window)
            if "stats" in self.analytics
            else None
        )
        self._deg = np.zeros(n, dtype=np.int64)
        # Closeness cache: all-zero is exact for the initial edgeless
        # graph, so the cache starts fully valid.
        self._clo = np.zeros(n, dtype=np.float64)
        self._community = np.arange(n, dtype=np.int64)
        self._modularity = 0.0
        self._applied_batches: list[list[EdgeEvent]] = []
        self._results: list[BatchResult] = []
        self._n_restored = 0  # batches folded into the state() rebuilt from
        self._log: Optional[RecordLog] = None  # set by save() / resume()
        self._n_logged = 0  # applied batches the log already holds

    # ------------------------------------------------------------------
    @property
    def n_batches(self) -> int:
        return self._n_restored + len(self._applied_batches)

    @property
    def n_edges(self) -> int:
        return self._cc.n_edges

    @property
    def results(self) -> list[BatchResult]:
        return list(self._results)

    @property
    def applied_batches(self) -> list[list[EdgeEvent]]:
        """The batches applied since the engine was built or rebuilt
        from :meth:`state` (read-only copy of the outer list)."""
        return list(self._applied_batches)

    def forget_history(self) -> None:
        """Drop the applied batches and their results, keeping their
        count: the engine's analytics and later checksums are unchanged,
        but it can no longer :meth:`save` (like a :meth:`from_state`
        engine).  A long-lived engine calls this to hold O(graph), not
        O(history)."""
        self._n_restored = self.n_batches
        self._applied_batches.clear()
        self._results.clear()

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
    def apply_events(self, events: Iterable[EdgeEvent]) -> list[BatchResult]:
        """Group ``events`` by timestamp and apply each batch."""
        return [self.apply_batch(batch) for batch in group_batches(events)]

    def apply_batch(self, events: Sequence[EdgeEvent]) -> BatchResult:
        """Apply one batch of events, refresh analytics, return results."""
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
            result = self._apply_batch_inner(events)
        self._applied_batches.append(events)
        self._results.append(result)
        return result

    def _apply_batch_inner(self, events: list[EdgeEvent]) -> BatchResult:
        n = self.n_vertices
        touched: set[int] = set()
        n_applied = 0
        stale = False
        for ev in events:
            if ev.u == ev.v:
                continue  # self-loops carry no structure here
            if not (0 <= ev.u < n and 0 <= ev.v < n):
                raise GraphStructureError(
                    f"event vertex out of range [0, {n}): {ev}"
                )
            if ev.kind == "add":
                applied = self._cc.add_edge(ev.u, ev.v)
            else:
                applied = self._cc.delete_edge(ev.u, ev.v)
            if not applied:
                continue
            n_applied += 1
            touched.add(ev.u)
            touched.add(ev.v)
            key = (min(ev.u, ev.v), max(ev.u, ev.v))
            if ev.kind == "add":
                self._added[key] = ev.weight
                if self._stats is not None:
                    self._stats.add_edge(ev.u, ev.v)
                self._deg[ev.u] += 1
                self._deg[ev.v] += 1
            else:
                if self._added.pop(key, None) is None:
                    self._deleted.add(key)
                stale = True
                if self._stats is not None:
                    self._stats.delete_edge(ev.u, ev.v)
                self._deg[ev.u] -= 1
                self._deg[ev.v] -= 1
        if stale:  # the kernel on the snapshot, not a union per edge
            from repro.kernels.connected import connected_components

            self._cc.assign_labels(
                connected_components(self.snapshot(), ctx=self.ctx)
            )

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
        if "stats" in self.analytics and self._stats is not None:
            with tr.span("stream.stats") if tr else _noop():
                kw["n_triangles"] = self._stats.n_triangles
                kw["n_wedges"] = self._stats.n_wedges
                kw["global_clustering"] = self._stats.global_clustering
            crc = _crc(
                crc,
                np.asarray(
                    [kw["n_triangles"], kw["n_wedges"]], dtype=np.int64
                ),
            )
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

        t = int(events[0].t)
        return BatchResult(
            t=t,
            n_events=len(events),
            n_applied=n_applied,
            n_edges=self.n_edges,
            checksum=crc,
            **kw,
        )

    # ------------------------------------------------------------------
    def _refresh_closeness(self, touched: set[int]) -> None:
        """Re-solve only sources whose component a touched vertex joined.

        Invalidation rule: a vertex's closeness can change only if its
        *new* component contains a touched endpoint — otherwise that
        component is an old component with an identical edge set (any
        edge added to it or deleted from its boundary would have put a
        touched endpoint inside), so the cached value is still exact.
        """
        if not touched or self.n_vertices == 0:
            return
        from repro.centrality.closeness import closeness_centrality

        cc_labels = self._cc.labels()
        hot = np.unique(cc_labels[np.asarray(sorted(touched), dtype=np.int64)])
        invalid = np.nonzero(np.isin(cc_labels, hot))[0]
        fresh = closeness_centrality(
            self.snapshot(), sources=invalid.tolist(), ctx=self.ctx
        )
        self._clo[invalid] = fresh[invalid]

    def _refresh_community(self, touched: set[int]) -> None:
        """Repair the partition locally; escalate if repair falls behind.

        The localized re-sweep is the fast path and usually wins (warm
        start + full settle), but a warm start can trap the partition
        in a local optimum a fresh run escapes.  With
        ``community_escalate`` (default) the engine also runs a fresh
        single-level pLA and keeps the higher-Q partition — ties prefer
        the repair, preserving label continuity across batches.  This
        makes the harness invariant *modularity ≥ full single-level
        re-run* unconditional rather than empirical.
        """
        from repro.community.pla import pla
        from repro.community.resweep import local_resweep

        if not touched:
            return
        snap = self.snapshot()
        res = local_resweep(
            snap,
            labels=self._community,
            touched=sorted(touched),
            radius=self.resweep_radius,
            max_passes=self.resweep_passes,
            ctx=self.ctx,
        )
        labels, q = res.labels, float(res.modularity)
        if self.community_escalate and snap.n_arcs > 0:
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
            "window": self.window,
            "resweep_passes": self.resweep_passes,
            "resweep_radius": self.resweep_radius,
            "community_escalate": self.community_escalate,
        }

    def save(self, path) -> None:
        """Durably log the batches applied since the last save: one
        :class:`~repro.durable.RecordLog` record each, under the engine
        config as the log's parameters.

        Called after every applied batch by ``repro stream
        --checkpoint-dir``, so a save costs O(batch), not O(history).  A
        crash *during* a batch leaves the log without it and a crash
        mid-append leaves a torn final record, which :meth:`resume`
        drops; either way resume re-applies exactly that batch —
        exactly-once application without a write-ahead log.  The first
        save to a path this engine did not resume from starts a fresh
        log there.
        """
        if self._n_restored:
            raise ValueError("an engine rebuilt from state() or past "
                             "forget_history() has no batch history to log")
        path = Path(path)
        if self._log is None or self._log.path != path:
            self._log = RecordLog(
                path, kind=STREAM_CHECKPOINT_KIND, params=self._config()
            )
            self._n_logged = 0
        for batch in self._applied_batches[self._n_logged:]:
            self._log.append([(e.kind, e.u, e.v, e.t, e.weight) for e in batch])
            self._n_logged += 1

    def resume(self, path) -> None:
        """Replay a :meth:`save` log into this fresh engine; later saves
        to ``path`` extend it.

        The log must have been saved by an engine with this one's config
        (:class:`~repro.errors.CorruptCheckpoint` names the first
        differing setting); integrity failures raise the same way before
        any replay, and a missing log raises ``FileNotFoundError``.
        Replay is batch-by-batch (community repair and burst windows are
        cadence-sensitive), so the per-batch checksums match the saving
        engine's bit-for-bit.
        """
        if self.n_batches:
            raise ValueError("resume() needs an engine with no applied batches")
        log = RecordLog(path, kind=STREAM_CHECKPOINT_KIND, params=self._config())
        batches = log.load()
        if batches is None:
            raise FileNotFoundError(f"no stream checkpoint at {path}")
        for batch in batches:
            self.apply_batch(
                [EdgeEvent(kind, u, v, t=t, weight=w) for kind, u, v, t, w in batch]
            )
        self._log, self._n_logged = log, len(batches)

    def state(self) -> dict:
        """Everything that shapes later batches, as one picklable dict.

        :meth:`from_state` rebuilds an engine whose next batches carry
        the same checksums as this one's would (a tier-1 test holds
        this with every analytic on).  Its size is the graph's, not the
        history's: left out are the execution context, any open
        checkpoint log, and the applied batches and their results
        (only their count is kept).  The dict shares the engine's
        objects: pickle it before the engine applies another batch.
        """
        state = {k: v for k, v in vars(self).items() if k != "ctx"}
        state.update(_log=None, _n_logged=0, _results=[], _applied_batches=[],
                     _n_restored=self.n_batches)
        return state

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
        """Seed an engine with an existing graph as one ``t=0`` batch."""
        g = graph.as_undirected() if graph.directed else graph
        engine = cls(g.n_vertices, **kwargs)
        src, tgt, w = g.arc_sources(), g.targets, g.edge_weights()
        keep = src < tgt
        batch = [
            EdgeEvent("add", int(u), int(v), t=0, weight=float(wt))
            for u, v, wt in zip(
                src[keep],
                tgt[keep],
                g.weights[keep] if g.is_weighted else np.ones(keep.sum()),
            )
        ]
        if batch:
            engine.apply_batch(batch)
        return engine


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
    window: int = 1024,
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
        window=window,
        resweep_passes=resweep_passes,
        resweep_radius=resweep_radius,
        ctx=ctx,
    )
    results = engine.apply_events(events)
    last = results[-1] if results else None
    stats = engine._stats
    return StreamReplayResult(
        n_batches=len(results),
        n_edges=engine.n_edges,
        labels=engine._cc.labels(),
        n_components=engine._cc.n_components,
        n_triangles=stats.n_triangles if stats is not None else 0,
        n_wedges=stats.n_wedges if stats is not None else 0,
        global_clustering=(
            stats.global_clustering if stats is not None else 0.0
        ),
        batch_checksums=np.asarray(
            [r.checksum for r in results], dtype=np.int64
        ),
        degree_topk=(last.degree_topk or []) if last else [],
        closeness_topk=(last.closeness_topk or []) if last else [],
        community_labels=last.community_labels if last else None,
        modularity=last.modularity if last else None,
    )
