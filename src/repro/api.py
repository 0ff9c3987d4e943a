"""``repro.api`` — the stable public facade.

One small, stable surface over the whole stack, shared by library
users, the CLI and the serve daemon.  Three verbs::

    import repro.api as api

    web = api.load("data/web.graph")            # -> GraphHandle
    fut = api.submit(web, "closeness")          # -> Future[RunResult]
    res = api.run("bfs", web, source=0)         # sync shim

* :func:`load` parses a graph file (format by extension) **once** into
  the process-wide default :class:`Session` and returns a
  :class:`GraphHandle`; loading the same path again is a cache hit.
* :func:`submit` enqueues a query into the session's request
  coalescer: concurrent BFS/closeness submissions against the same
  handle merge into one multi-source traversal, identical submissions
  deduplicate.  Returns a :class:`concurrent.futures.Future` resolving
  to the same :class:`~repro.obs.runner.RunResult` envelope
  :func:`repro.obs.run` produces.
* :func:`run` is the synchronous shim: handle in → ``submit().result()``;
  raw :class:`~repro.graph.csr.Graph` in → a direct validated
  :func:`repro.obs.run` call (no daemon machinery touched).

Parameter validation is the **same path everywhere**
(:func:`repro.obs.api.validate_params`, generated from ``@algorithm``
registry metadata) — a typo'd keyword fails identically in the
library, the CLI and over the wire.

Embedders that want explicit lifecycles build their own
:class:`Session` (a context manager); the module-level default session
is created lazily and torn down at interpreter exit.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import Future
from typing import Any, Optional, Union

from repro.graph.csr import Graph
from repro.obs.api import split_operands, validate_params
from repro.obs.runner import RunResult
from repro.obs.runner import run as _obs_run

__all__ = [
    "GraphHandle",
    "Session",
    "load",
    "add",
    "submit",
    "run",
    "default_session",
    "close_default_session",
]


def _fold_operands(algo: str, operands: tuple, params: dict) -> dict:
    """Merge positional operands into the params dict by registry name."""
    merged = dict(params)
    if operands:
        from repro.obs.api import algorithm_spec

        spec = algorithm_spec(algo)
        if len(operands) > len(spec["operands"]):
            raise TypeError(
                f"{algo} takes {len(spec['operands'])} operand(s), "
                f"{len(operands)} given"
            )
        for op, val in zip(spec["operands"], operands):
            merged[op["name"]] = val
    return merged


def _run_direct(algo: str, graph: Graph, ctx, params: dict) -> RunResult:
    """Validated inline execution for raw graphs (no scheduler)."""
    validate_params(algo, params)
    ops, kwargs = split_operands(algo, params)
    return _obs_run(algo, graph, *ops, ctx=ctx, trace=False, **kwargs)


class GraphHandle:
    """A name bound to a graph resident in a :class:`Session`.

    Handles are cheap references — the graph itself lives once in the
    session's registry (and, on the process backend, once in shared
    memory).  Pass a handle anywhere the facade expects a graph.
    """

    __slots__ = ("name", "_session")

    def __init__(self, name: str, session: "Session") -> None:
        self.name = name
        self._session = session

    @property
    def session(self) -> "Session":
        return self._session

    @property
    def graph(self) -> Graph:
        """The underlying resident :class:`Graph` (zero-copy)."""
        return self._session.registry.get(self.name).graph

    def describe(self) -> dict:
        return self._session.registry.get(self.name).describe()

    def __repr__(self) -> str:  # pragma: no cover - repr
        return f"GraphHandle({self.name!r})"


class Session:
    """A resident-graph registry + request coalescer, in one process.

    The same composition ``repro serve`` runs behind HTTP, usable
    directly as a library: graphs stay resident across calls, and
    concurrent :meth:`submit` calls from multiple threads coalesce.
    """

    def __init__(
        self,
        *,
        options=None,
        max_bytes: Optional[int] = None,
        max_batch_delay: float = 0.002,
        max_batch: int = 64,
        batch_runners: int = 2,
        trace: bool = False,
    ) -> None:
        from repro.cli_options import ExecutionOptions
        from repro.serve.coalescer import Coalescer
        from repro.serve.registry import GraphRegistry

        self.options = options if options is not None else ExecutionOptions()
        self.ctx = self.options.make_context()
        self.registry = GraphRegistry(max_bytes=max_bytes, ctx=self.ctx)
        self.coalescer = Coalescer(
            self.registry,
            ctx=self.ctx,
            max_batch_delay=max_batch_delay,
            max_batch=max_batch,
            batch_runners=batch_runners,
            trace=trace,
        )
        self._closed = False
        # Streaming ingestion state: one StreamEngine per resident name,
        # surviving across ingest() calls so analytics stay incremental.
        self.engines: dict = {}
        self._ingest_lock = threading.Lock()

    # -- residency -----------------------------------------------------
    def load(
        self, path: str, *, name: Optional[str] = None,
        directed: bool = False,
    ) -> GraphHandle:
        """Read ``path`` once (format by extension) into residency."""
        entry = self.registry.load(path, name=name, directed=directed)
        return GraphHandle(entry.name, self)

    def add(self, name: str, graph: Graph) -> GraphHandle:
        """Admit an already-built in-memory graph under ``name``."""
        entry = self.registry.add(name, graph)
        return GraphHandle(entry.name, self)

    def _resolve(self, graph: Union[GraphHandle, str]) -> str:
        if isinstance(graph, GraphHandle):
            return graph.name
        if isinstance(graph, str):
            return graph
        raise TypeError(
            f"expected a GraphHandle or resident name, got {type(graph).__name__}"
        )

    # -- execution -----------------------------------------------------
    def submit(
        self,
        graph: Union[GraphHandle, str],
        algo: str,
        *,
        deadline_s: Optional[float] = None,
        **params: Any,
    ) -> "Future[RunResult]":
        """Enqueue a query; compatible concurrent queries coalesce."""
        return self.coalescer.submit(
            self._resolve(graph), algo, params, deadline_s=deadline_s
        )

    def run(
        self,
        algo: str,
        graph: Union[GraphHandle, str, Graph],
        *operands: Any,
        deadline_s: Optional[float] = None,
        **params: Any,
    ) -> RunResult:
        """Synchronous shim: submit and wait (or run directly).

        A raw :class:`Graph` bypasses the scheduler — the call is
        validated and executed inline via :func:`repro.obs.run` with
        this session's backend options.
        """
        merged = _fold_operands(algo, operands, params)
        if isinstance(graph, Graph):
            return _run_direct(algo, graph, self.ctx, merged)
        fut = self.submit(graph, algo, deadline_s=deadline_s, **merged)
        return fut.result()

    def ingest(
        self,
        graph: Union[GraphHandle, str],
        events: Any,
        *,
        analytics: Optional[list] = None,
        k: int = 10,
    ) -> dict:
        """Apply streamed edge events onto a resident graph.

        ``events`` is a sequence of :class:`~repro.dynamic.EdgeEvent`
        (or ``(kind, u, v, t[, weight])`` tuples / equivalent dicts);
        batches split on timestamp changes.  A per-name
        :class:`~repro.dynamic.StreamEngine` maintains incremental
        analytics across calls, and on return the resident snapshot is
        atomically replaced so subsequent queries see the new graph.
        Returns the same per-batch JSON summary as ``POST /v1/ingest``.
        """
        from repro.dynamic.events import EdgeEvent
        from repro.serve.ingest import ingest_events

        rows = []
        for e in events:
            if isinstance(e, EdgeEvent):
                rows.append({
                    "t": e.t, "kind": e.kind, "u": e.u, "v": e.v,
                    "weight": e.weight,
                })
            elif isinstance(e, dict):
                rows.append({
                    "t": int(e["t"]), "kind": str(e["kind"]),
                    "u": int(e["u"]), "v": int(e["v"]),
                    "weight": float(e.get("weight", 1.0)),
                })
            else:
                kind, u, v, t = e[0], e[1], e[2], e[3]
                weight = e[4] if len(e) > 4 else 1.0
                rows.append({
                    "t": int(t), "kind": str(kind), "u": int(u),
                    "v": int(v), "weight": float(weight),
                })
        with self._ingest_lock:
            return ingest_events(
                self.registry,
                self.engines,
                self._resolve(graph),
                rows,
                ctx=self.ctx,
                analytics=list(analytics) if analytics is not None else None,
                k=k,
            )

    # -- lifecycle -----------------------------------------------------
    def stats(self) -> dict:
        return {
            "coalescer": self.coalescer.stats(),
            "registry": self.registry.stats(),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.coalescer.close()
        self.registry.close()
        self.ctx.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Module-level default session
# ----------------------------------------------------------------------
_DEFAULT: Optional[Session] = None
_DEFAULT_LOCK = threading.Lock()


def default_session() -> Session:
    """The lazily-created process-wide session (atexit-managed)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None or _DEFAULT._closed:
            _DEFAULT = Session()
        return _DEFAULT


def close_default_session() -> None:
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is not None:
            _DEFAULT.close()
            _DEFAULT = None


atexit.register(close_default_session)


def load(
    name_or_path: str, *, name: Optional[str] = None, directed: bool = False,
) -> GraphHandle:
    """Load a graph file into the default session → :class:`GraphHandle`."""
    return default_session().load(name_or_path, name=name, directed=directed)


def add(name: str, graph: Graph) -> GraphHandle:
    """Admit an in-memory graph into the default session."""
    return default_session().add(name, graph)


def submit(
    graph: Union[GraphHandle, str],
    algo: str,
    *,
    deadline_s: Optional[float] = None,
    **params: Any,
) -> "Future[RunResult]":
    """Enqueue a query on the default session → ``Future[RunResult]``."""
    handle_session = (
        graph.session if isinstance(graph, GraphHandle) else default_session()
    )
    return handle_session.submit(
        graph, algo, deadline_s=deadline_s, **params
    )


def run(
    algo: str,
    graph: Union[GraphHandle, str, Graph],
    *operands: Any,
    **params: Any,
) -> RunResult:
    """Synchronous facade: validate, dispatch, wait → ``RunResult``."""
    if isinstance(graph, GraphHandle):
        return graph.session.run(algo, graph, *operands, **params)
    if isinstance(graph, Graph):
        # Raw graph: validated inline run, no session machinery spun up.
        return _run_direct(algo, graph, None, _fold_operands(algo, operands, params))
    return default_session().run(algo, graph, *operands, **params)
