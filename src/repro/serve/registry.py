"""Resident graph registry for the long-lived service.

The whole point of ``repro serve`` is that a graph is loaded **once**:
parsed from disk once, packed into one shared-memory segment once
(process backend), then served to every request until evicted.  The
registry is the bookkeeping for that residency:

* **Named residency** — graphs are addressable by name; loading an
  already-resident name is a cache hit (no re-read, no re-share).
* **Byte-budget admission control** — ``max_bytes`` caps the summed
  CSR bytes of resident graphs (one resident under two names counts once).  Admission of a new graph evicts
  least-recently-used residents until it fits; a graph that cannot fit
  even then (or only pinned graphs remain) is refused with
  :class:`~repro.errors.AdmissionDenied` *before* any state changes.
* **Prompt release** — evicting the last name that holds a graph has
  the execution context close its one shared segment immediately
  (``/dev/shm`` is a finite resource on a daemon host; sweeping
  segments at interpreter exit is only the last-resort backstop), and
  drops the entry's stream engine with the entry.
* **Pinning** — the coalescer pins a graph for the duration of a batch
  so eviction can never unmap CSR arrays under a running kernel.
* **Atomic load** — a failed read/share leaves *no* trace: the name is
  only registered after every fallible step has succeeded.

All methods are thread-safe (handler threads and the dispatcher share
the registry).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AdmissionDenied, GraphNotResident
from repro.graph.csr import Graph
from repro.graph.io import read_auto

__all__ = ["ResidentGraph", "GraphRegistry"]


@dataclass
class ResidentGraph:
    """One named resident graph and its residency bookkeeping.

    ``closeness`` is the coalescer's answer memo: ``wf_improved`` ->
    float64[n] closeness scores, NaN where a source has not run, made
    at the entry's first merged closeness batch; at most 8·n bytes per
    key.  It goes with the entry (an ingest publishes a new entry,
    eviction drops it, a restore admits fresh ones, a pinned entry is
    never replaced), so it needs no invalidation; it is never
    persisted, and ``max_batch=1`` never touches it.
    """

    name: str
    graph: Graph
    nbytes: int
    source: str
    engine: Optional[object] = None  # repro.dynamic.StreamEngine
    closeness: dict = field(default_factory=dict)
    pins: int = 0
    hits: int = 0
    shards: Optional[int] = None  # k when loaded from a shard set
    last_used: float = field(default_factory=time.monotonic)

    def describe(self) -> dict:
        doc = {
            "name": self.name,
            "source": self.source,
            "n_vertices": self.graph.n_vertices,
            "n_edges": self.graph.n_edges,
            "directed": self.graph.directed,
            "weighted": self.graph.is_weighted,
            "nbytes": self.nbytes,
            "hits": self.hits,
            "pinned": self.pins > 0,
        }
        if self.shards is not None:
            doc["shards"] = self.shards
        return doc


class GraphRegistry:
    """Thread-safe LRU registry of resident graphs.

    ``ctx`` is the service's long-lived
    :class:`~repro.parallel.runtime.ParallelContext`; on the process
    backend each admitted graph is shared into the context's one
    segment for it up front, so every request-batch dispatch reuses the
    same mapping instead of re-sharing per ``map_batches`` call.
    """

    def __init__(self, *, max_bytes: Optional[int] = None, ctx=None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        self.max_bytes = max_bytes
        self.ctx = ctx
        self._lock = threading.RLock()
        self._graphs: dict[str, ResidentGraph] = {}
        # Monotone counters for the stats surface / tests.
        self.loads = 0
        self.load_hits = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """CSR bytes of the distinct resident graphs: a second name for
        a resident ``Graph`` adds none."""
        with self._lock:
            return sum({id(e.graph): e.nbytes for e in self._graphs.values()}.values())

    def _make_room(self, incoming: int) -> None:
        """Evict LRU unpinned residents until ``incoming`` bytes fit."""
        if self.max_bytes is None:
            return
        if incoming > self.max_bytes:
            raise AdmissionDenied(
                f"graph of {incoming} bytes exceeds the registry budget "
                f"of {self.max_bytes} bytes"
            )
        while self.resident_bytes + incoming > self.max_bytes:
            victims = [e for e in self._graphs.values() if e.pins == 0]
            if not victims:
                raise AdmissionDenied(
                    f"cannot admit {incoming} bytes: every resident graph "
                    f"is pinned by an in-flight batch"
                )
            victim = min(victims, key=lambda e: e.last_used)
            self._evict_entry(victim)

    def _evict_entry(self, entry: ResidentGraph) -> None:
        self._graphs.pop(entry.name, None)
        entry.engine = None
        # A segment belongs to the Graph it packs: it goes with the last
        # entry that holds that Graph, never under another name's batch.
        if self.ctx is not None and not any(
            e.graph is entry.graph for e in self._graphs.values()
        ):
            self.ctx.discard_shared_graph(entry.graph)
        self.evictions += 1

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        graph: Graph,
        *,
        source: str = "memory",
        shards: Optional[int] = None,
    ) -> ResidentGraph:
        """Admit an in-memory graph under ``name`` (undirected view).

        Atomic: admission control and segment sharing happen before the
        name becomes visible, so a failure leaves the registry exactly
        as it was.
        """
        from repro.sharded.shards import in_core_nbytes

        if graph.directed:
            graph = graph.as_undirected()
        nbytes = in_core_nbytes(graph)
        with self._lock:
            existing = self._graphs.get(name)
            if existing is not None:
                self.load_hits += 1
                existing.hits += 1
                existing.last_used = time.monotonic()
                return existing
            # An already-resident Graph under a second name costs no bytes
            # and reuses its segment.
            if not any(e.graph is graph for e in self._graphs.values()):
                self._make_room(nbytes)
            if self.ctx is not None and self.ctx.backend == "process":
                self.ctx.share_graph(graph)  # may raise: nothing registered yet
            entry = ResidentGraph(
                name=name, graph=graph, nbytes=nbytes,
                source=source, shards=shards,
            )
            self._graphs[name] = entry
            self.loads += 1
            return entry

    def load(
        self,
        path: str,
        *,
        name: Optional[str] = None,
        directed: bool = False,
    ) -> ResidentGraph:
        """Read ``path`` (format by extension) and admit it.

        ``name`` defaults to the path string.  Re-loading a resident
        name never re-reads the file.  A parse failure, admission
        refusal or shm allocation failure leaves no half-registered
        name behind.

        A shard-set path (a directory holding ``manifest.json``, or the
        manifest itself — see :mod:`repro.sharded`) is admitted by its
        manifest byte totals *before* any shard data is read: a set
        whose stitched CSR cannot fit the budget is refused without
        paging a single shard in.
        """
        name = name if name is not None else str(path)
        with self._lock:
            existing = self._graphs.get(name)
            if existing is not None:
                self.load_hits += 1
                existing.hits += 1
                existing.last_used = time.monotonic()
                return existing
        from repro.sharded import is_shard_set_path

        if is_shard_set_path(path):
            return self._load_shard_set(path, name=name)
        graph = read_auto(path, directed=directed)  # off-lock: slow
        return self.add(name, graph, source=str(path))

    def _load_shard_set(self, path: str, *, name: str) -> ResidentGraph:
        """Stitch a shard set into residency (manifest-first admission)."""
        from repro.sharded import open_shard_set

        ss = open_shard_set(path)  # reads the manifest only
        if self.max_bytes is not None and ss.in_core_bytes > self.max_bytes:
            raise AdmissionDenied(
                f"shard set {path} stitches to {ss.in_core_bytes} bytes "
                f"(manifest total); registry budget is {self.max_bytes} bytes"
            )
        graph = ss.stitch()
        return self.add(
            name, graph, source=f"shard-set:{path}", shards=ss.k
        )

    # ------------------------------------------------------------------
    # Lookup / pinning
    # ------------------------------------------------------------------
    def get(self, name: str) -> ResidentGraph:
        with self._lock:
            entry = self._graphs.get(name)
            if entry is None:
                known = ", ".join(sorted(self._graphs)) or "(none resident)"
                raise GraphNotResident(
                    f"graph {name!r} is not resident; resident: {known}"
                )
            entry.hits += 1
            entry.last_used = time.monotonic()
            return entry

    def pin(self, name: str) -> ResidentGraph:
        """Mark a graph in-use: pinned graphs are never evicted."""
        with self._lock:
            entry = self.get(name)
            entry.pins += 1
            return entry

    def unpin(self, name: str) -> None:
        with self._lock:
            entry = self._graphs.get(name)
            if entry is not None and entry.pins > 0:
                entry.pins -= 1

    def replace(self, name: str, graph: Graph, *, source: str = "ingest") -> ResidentGraph:
        """Atomically swap a resident graph for a new snapshot.

        The ingestion path: a stream batch produces a new materialized
        snapshot that must replace the resident graph under the same
        name.  Pinned graphs refuse (an in-flight batch is reading the
        old arrays); the swap happens entirely under the lock so no
        reader ever observes the name missing.
        """
        with self._lock:
            entry = self._graphs.get(name)
            if entry is not None:
                if entry.pins > 0:
                    raise AdmissionDenied(
                        f"graph {name!r} is pinned by an in-flight batch"
                    )
                self._evict_entry(entry)
            return self.add(name, graph, source=source)

    def evict(self, name: str) -> bool:
        """Evict by name; False if absent, error if pinned."""
        with self._lock:
            entry = self._graphs.get(name)
            if entry is None:
                return False
            if entry.pins > 0:
                raise AdmissionDenied(
                    f"graph {name!r} is pinned by an in-flight batch"
                )
            self._evict_entry(entry)
            return True

    def entries(self) -> list[ResidentGraph]:
        """The resident entries, least recently used first."""
        with self._lock:
            return sorted(self._graphs.values(), key=lambda e: e.last_used)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._graphs)

    def stats(self) -> dict:
        with self._lock:
            return {
                "resident": [e.describe() for e in self._graphs.values()],
                "resident_bytes": self.resident_bytes,
                "max_bytes": self.max_bytes,
                "loads": self.loads,
                "load_hits": self.load_hits,
                "evictions": self.evictions,
            }

    def close(self) -> None:
        """Evict everything (prompt segment release), ignoring pins."""
        with self._lock:
            for entry in list(self._graphs.values()):
                self._evict_entry(entry)
            self._graphs.clear()

    def __enter__(self) -> "GraphRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
