"""Topological analysis of dynamic networks (the paper's future work).

"We intend to extend SNAP to support the topological analysis of
dynamic networks" (paper §6).  This package provides the incremental
machinery that extension needs:

* :class:`~repro.dynamic.components.UnionFind` — min-root labels
  maintained under edge insertions, with O(α) queries; the stream
  engine resets it from the batch kernel after a batch that deletes;
* :mod:`~repro.dynamic.events` — the timestamped edge-event vocabulary
  and ``.events`` file format;
* :mod:`~repro.dynamic.sources` — crawler policies (rc/rw/bfs/mod)
  revealing a hidden graph batch-by-batch;
* :class:`~repro.dynamic.engine.StreamEngine` — ingests event batches
  into one edge set (a CSR plus its net delta) and maintains incremental
  analytics at batch cost (components, triangle/wedge stats,
  degree/closeness top-k, community labels), checkpointable and
  prefix-differentially tested (:mod:`repro.qa.prefix`).
"""

from repro.dynamic.engine import (
    ANALYTICS,
    BatchResult,
    StreamEngine,
    StreamReplayResult,
    stream_replay,
)
from repro.dynamic.events import (
    EdgeEvent,
    canonical_final_edges,
    group_batches,
    read_events,
    write_events,
)
from repro.dynamic.sources import CRAWL_POLICIES, crawl_events

__all__ = [
    "ANALYTICS",
    "BatchResult",
    "CRAWL_POLICIES",
    "EdgeEvent",
    "StreamEngine",
    "StreamReplayResult",
    "canonical_final_edges",
    "crawl_events",
    "group_batches",
    "read_events",
    "stream_replay",
    "write_events",
]
