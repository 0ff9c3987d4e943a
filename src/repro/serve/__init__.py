"""Graph-service daemon: resident shared graphs behind a coalescing scheduler.

``repro serve`` keeps graphs resident — parsed once, packed into
shared-memory CSR segments once — and multiplexes concurrent queries
over them.  Compatible in-flight requests coalesce: multiple BFS /
closeness sources against the same graph fold into **one** batched
multi-source traversal (bit-identical per-request results), and
identical requests deduplicate into a single run.  The wire schema is
generated from the ``@algorithm`` registry, so library, CLI and wire
share one validation path.

Layers:

* :mod:`repro.serve.registry`  — named residency, LRU byte-budget
  admission, pinning, prompt shm release.
* :mod:`repro.serve.coalescer` — max-batch-delay scheduler, source
  merging, dedup, deadlines via the FaultPolicy ladder.
* :mod:`repro.serve.protocol`  — registry-generated request schema,
  JSON envelopes.
* :mod:`repro.serve.server`    — stdlib ThreadingHTTPServer daemon: one
  :class:`repro.api.Session` (which composes the registry, the
  coalescer and the stream engines, and owns ingestion) plus HTTP
  handlers, async tickets, the state log and the profile.
* :mod:`repro.serve.client`    — stdlib http.client, kept-alive client.
"""

from repro import _lazy

# An in-process Session imports the coalescer and registry through this
# package; the HTTP daemon (server.py) loads only when something reads it.
__getattr__, __dir__ = _lazy.exports(globals(), {
    "Coalescer": "repro.serve.coalescer",
    "ServeRequest": "repro.serve.coalescer",
    "GraphRegistry": "repro.serve.registry",
    "ResidentGraph": "repro.serve.registry",
    "ReproServer": "repro.serve.server",
    "ServeConfig": "repro.serve.server",
})

__all__ = [
    "Coalescer",
    "ServeRequest",
    "GraphRegistry",
    "ResidentGraph",
    "ReproServer",
    "ServeConfig",
]
