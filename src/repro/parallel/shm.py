"""Zero-copy CSR graph handoff between processes.

The process execution backend distributes coarse-grained source batches
over real worker processes.  Pickling a :class:`~repro.graph.csr.Graph`
per task would copy the CSR arrays into every worker — exactly the
overhead the paper's shared-memory design avoids — so instead the
parent packs the arrays into one ``multiprocessing.shared_memory``
segment (:func:`share_graph`, one copy total) and ships workers a tiny
picklable :class:`GraphSpec`.  Workers rebuild the graph as NumPy views
directly over the mapped segment (:func:`attach_graph`): no per-worker
copy, and repeated tasks in the same worker reuse a per-process attach
cache.

Attached graphs alias shared mutable memory; treat them as read-only
(every kernel does).
"""

from __future__ import annotations

import atexit
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from repro.errors import ShmAttachError
from repro.graph.csr import Graph

# Field pack order inside the segment (all 8-byte dtypes, so
# concatenation keeps every array aligned).
_FIELDS = ("offsets", "targets", "weights", "arc_edge_ids")


@dataclass(frozen=True)
class GraphSpec:
    """Picklable recipe for attaching a shared CSR graph.

    ``layout`` rows are ``(field, byte_offset, length, dtype_str)`` for
    each array present in the segment.
    """

    shm_name: str
    directed: bool
    n_edges: int
    layout: tuple[tuple[str, int, int, str], ...]


# Registry of every parent-side segment still alive in this process.
# A crashed worker, a KeyboardInterrupt mid-dispatch or a leaked
# ParallelContext must not strand segments in /dev/shm: whatever is
# still registered at interpreter exit is swept by ``_sweep_leaked``.
_LIVE_SEGMENTS: dict[str, "SharedGraph"] = {}


def live_segment_names() -> tuple[str, ...]:
    """Names of parent-owned shared segments not yet closed."""
    return tuple(_LIVE_SEGMENTS)


def _sweep_leaked() -> int:
    """Close every still-registered segment; returns how many it swept."""
    leaked = list(_LIVE_SEGMENTS.values())
    for seg in leaked:
        seg.close()
    return len(leaked)


atexit.register(_sweep_leaked)


class SharedGraph:
    """Parent-side handle owning a shared graph segment.

    ``spec`` is what crosses the process boundary.  The parent unlinks
    the segment when done (workers only map it); both operations are
    idempotent here — double-``close`` is a no-op, and every live
    handle is tracked in a registry swept at interpreter exit so a
    crash between creation and cleanup cannot leak ``/dev/shm``.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        spec: GraphSpec,
        nbytes: int = 0,
    ) -> None:
        self.shm: Optional[shared_memory.SharedMemory] = shm
        self.spec = spec
        self.nbytes = int(nbytes)
        _LIVE_SEGMENTS[spec.shm_name] = self

    def close(self) -> None:
        """Unmap and unlink the segment (parent-side cleanup)."""
        if self.shm is None:
            return
        try:
            self.shm.close()
            # Worker attaches may have unbalanced the (set-based) resource
            # tracker bookkeeping; re-register so unlink's implicit
            # unregister always finds the name and the tracker stays quiet.
            resource_tracker.register(self.shm._name, "shared_memory")
            self.shm.unlink()
        except (FileNotFoundError, OSError):  # already gone
            pass
        self.shm = None
        _LIVE_SEGMENTS.pop(self.spec.shm_name, None)


def share_graph(graph: Graph) -> SharedGraph:
    """Copy a graph's CSR arrays into one shared-memory segment.

    This is the *only* copy the process backend ever makes: every
    worker maps the same segment read-only via :func:`attach_graph`.
    """
    arrays = {"offsets": graph.offsets, "targets": graph.targets}
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    arrays["arc_edge_ids"] = graph.arc_edge_ids
    layout = []
    nbytes = 0
    for name in _FIELDS:
        if name not in arrays:
            continue
        a = arrays[name]
        layout.append((name, nbytes, int(a.shape[0]), a.dtype.str))
        nbytes += a.nbytes
    try:
        shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    except OSError as exc:  # /dev/shm full or unavailable
        raise ShmAttachError(
            f"could not allocate a {nbytes}-byte shared segment: {exc}"
        ) from exc
    for name, off, length, dt in layout:
        view = np.ndarray((length,), dtype=np.dtype(dt), buffer=shm.buf, offset=off)
        view[:] = arrays[name]
    spec = GraphSpec(shm.name, graph.directed, graph.n_edges, tuple(layout))
    return SharedGraph(shm, spec, nbytes)


# Per-process attach state.  The cache means a pool worker maps each
# graph segment once no matter how many batches it processes; the
# keep-alive list pins uncached attachments' segments so their mapped
# buffers outlive the returned arrays.  The cache is LRU-bounded: a
# long-lived worker serving a daemon must not accumulate a mapping for
# every graph that was ever resident (evicted parents unlink the
# backing file, but the worker's mapping would pin the memory forever).
_ATTACHED: "OrderedDict[str, tuple[shared_memory.SharedMemory, Graph]]" = (
    OrderedDict()
)
_KEEPALIVE: list[shared_memory.SharedMemory] = []

#: Max worker-side cached attachments; oldest are unmapped past this.
ATTACH_CACHE_CAP = 16


def detach_graph(shm_name: str) -> bool:
    """Drop one worker-side cached attachment, unmapping its segment.

    Safe while views are live: if NumPy arrays still alias the buffer
    the mapping is parked on the keep-alive list instead (the OS frees
    the memory once the parent has unlinked *and* the last mapping
    dies).  Returns True if the name was cached.
    """
    entry = _ATTACHED.pop(shm_name, None)
    if entry is None:
        return False
    shm = entry[0]
    try:
        shm.close()
    except BufferError:  # views outstanding — defer to process exit
        _KEEPALIVE.append(shm)
    return True


def _trim_attach_cache() -> None:
    while len(_ATTACHED) > max(1, ATTACH_CACHE_CAP):
        detach_graph(next(iter(_ATTACHED)))


def attach_graph(spec: GraphSpec, *, cache: bool = True) -> Graph:
    """Rebuild a :class:`Graph` as views over the shared segment.

    No CSR data is copied — ``offsets``/``targets``/``weights``/
    ``arc_edge_ids`` all alias the mapped buffer (their ``OWNDATA``
    flag is False).  With ``cache=True`` (the worker default) repeated
    attaches of one segment return the same Graph object.
    """
    if cache and spec.shm_name in _ATTACHED:
        _ATTACHED.move_to_end(spec.shm_name)
        return _ATTACHED[spec.shm_name][1]
    try:
        shm = shared_memory.SharedMemory(name=spec.shm_name, create=False)
    except (FileNotFoundError, OSError) as exc:
        # Classified so the fault-tolerant dispatcher can fall back to
        # pickled graph handoff instead of aborting the run.
        raise ShmAttachError(
            f"could not attach shared segment {spec.shm_name!r}: {exc}"
        ) from exc
    # Note on cleanup: CPython's resource tracker also registers
    # *attachments* (bpo-38119), but pool workers are forked children
    # sharing the parent's tracker process, whose name cache is a set —
    # so the extra registrations are no-ops and the parent's unlink in
    # :meth:`SharedGraph.close` settles the bookkeeping.
    fields = {}
    for name, off, length, dt in spec.layout:
        fields[name] = np.ndarray(
            (length,), dtype=np.dtype(dt), buffer=shm.buf, offset=off
        )
    graph = Graph(
        fields["offsets"],
        fields["targets"],
        directed=spec.directed,
        weights=fields.get("weights"),
        arc_edge_ids=fields["arc_edge_ids"],
        n_edges=spec.n_edges,
        validate=False,
    )
    if cache:
        _ATTACHED[spec.shm_name] = (shm, graph)
        _trim_attach_cache()
    else:
        _KEEPALIVE.append(shm)
    return graph


def _run_on_shared(spec: GraphSpec, worker, batch, payload):
    """Process-pool trampoline: attach the shared graph, run the worker.

    ``worker`` must be a module-level function (it is pickled by
    reference); its signature is ``worker(graph, batch, payload)``.
    """
    return worker(attach_graph(spec), batch, payload)


def _run_on_shared_traced(spec: GraphSpec, worker, batch, payload):
    """Like :func:`_run_on_shared`, but records the call under a fresh
    sub-tracer and returns ``(result, span_dict)`` for grafting."""
    from repro.parallel.runtime import _traced_batch_call

    return _traced_batch_call(worker, attach_graph(spec), batch, payload)
