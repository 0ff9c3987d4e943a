"""Request coalescing: many concurrent queries, fewer kernel dispatches.

The service's throughput lever.  Concurrent clients rarely need
*different* work — they need the same graph traversed from different
sources, or literally the same run.  The coalescer exploits both:

* **Source merging** — BFS / msbfs / closeness requests against the
  same graph (and identical other options) are merged into **one**
  batched multi-source traversal: the union of their sources becomes
  one ``msbfs`` lane set, and each request's answer is sliced back out
  of the shared result planes.  Lanes of the batched engine are fully
  independent (DESIGN §1.2b), so the per-request slices are
  **bit-identical** to isolated runs — coalescing is invisible except
  in latency and throughput.
* **Run deduplication** — requests for any algorithm whose *entire*
  parameter set matches (graph, algo, params, seed) share a single
  execution; every waiter gets the same payload.  This is what makes a
  thundering herd of identical pLA queries cost one pLA.

Mechanics: :meth:`Coalescer.submit` enqueues a request under its batch
key and returns a ``concurrent.futures.Future``.  A dispatcher thread
flushes a key as soon as a batch runner is idle, so a lone request
never waits.  Only while *every* runner is busy does a key build up —
until one frees up, ``max_batch`` requests accumulated, a deadline
turned urgent or its oldest request has waited ``max_batch_delay``
seconds: the knob is the longest a request waits *while every runner
is busy*, and a burst coalesces behind the batch already running.
Batches execute on a small pool of batch-runner threads (so a long pLA
cannot starve closeness traffic), pinning their graph for the duration.

Deadlines ride the existing resilience ladder: a request whose
deadline lapses while queued gets a structured
:class:`~repro.errors.DeadlineExpired` *without* disturbing the rest
of its batch, and an in-flight batch runs under the context's policy
(or the no-policy default) with the batch's latest deadline as its
phase deadline — a deadline bounds the batch, it does not switch on
retries.

Each request resolves to a full :class:`~repro.obs.runner.RunResult`
whose ``extras["serve"]`` records queue wait, batch size and whether
the request was coalesced; when profiling is enabled the per-batch
span tree (``serve.batch`` → ``serve.request``\\ s + algorithm spans)
is handed to ``on_batch``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import DeadlineExpired, ProtocolError, ServeError
from repro.kernels.bfs import MSBFSResult
from repro.obs.api import split_operands, validate_params
from repro.obs.runner import RunResult, run as obs_run
from repro.parallel.resilience import policy_for

__all__ = ["ServeRequest", "Coalescer", "MERGEABLE"]

#: algorithm -> name of the source argument that can be lane-merged.
#: ``bfs`` is served as a one-lane ``msbfs`` (identical distances; no
#: parent tree), which is what makes single-source requests mergeable.
MERGEABLE = {"bfs": "source", "msbfs": "sources", "closeness": "sources"}


def _canon_params(params: dict) -> str:
    """Canonical string key for a parameter dict (order-insensitive)."""
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        return repr(o)

    return json.dumps(params, sort_keys=True, default=default)


@dataclass
class ServeRequest:
    """One client query queued for (possibly coalesced) execution."""

    id: str
    graph: str
    algo: str
    params: dict
    future: Future = field(default_factory=Future)
    deadline: Optional[float] = None  # absolute, time.monotonic()
    enqueued: float = field(default_factory=time.monotonic)

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - (time.monotonic() if now is None else now)


class Coalescer:
    """Batching scheduler between the request surface and the kernels."""

    def __init__(
        self,
        registry,
        *,
        ctx=None,
        max_batch_delay: float = 0.005,
        max_batch: int = 64,
        batch_runners: int = 2,
        trace: bool = False,
        on_batch: Optional[Callable[[dict], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_batch_delay < 0:
            raise ValueError("max_batch_delay must be >= 0")
        self.registry = registry
        self.ctx = ctx
        self.max_batch_delay = float(max_batch_delay)
        self.max_batch = int(max_batch)
        self.trace = bool(trace)
        self.on_batch = on_batch
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: dict[tuple, list[ServeRequest]] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._runners = max(1, batch_runners)
        self._in_flight = 0  # batches handed to the pool, unfinished (under _wake)
        # Observable coalescing counters (served by /v1/stats).
        self.n_requests = 0
        self.n_batches = 0
        self.n_merged = 0        # requests that shared a dispatch with others
        self.n_dedup_hits = 0    # identical-run waiters beyond the first
        self.n_coalesced = 0     # Σ (batch size − 1): dispatches saved
        self.n_expired = 0
        self.queue_wait_total = 0.0
        self._runner_pool = ThreadPoolExecutor(
            max_workers=self._runners,
            thread_name_prefix="repro-serve-batch",
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _batch_key(self, graph: str, algo: str, params: dict) -> tuple:
        rest = dict(params)
        if algo in MERGEABLE:
            rest.pop(MERGEABLE[algo], None)
            # bfs and msbfs are the same lane-merged traversal; letting
            # them share a key merges mixed single/multi-source traffic.
            key_algo = "msbfs" if algo in ("bfs", "msbfs") else algo
        else:
            key_algo = algo
        return (graph, key_algo, _canon_params(rest))

    def submit(
        self,
        graph: str,
        algo: str,
        params: Optional[dict] = None,
        *,
        deadline_s: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> Future:
        """Queue one request; returns a Future of a ``RunResult``.

        ``params`` is the flat named-argument dict (operands included
        by name); it is validated against the algorithm registry spec
        *now*, so malformed requests fail fast and never occupy the
        scheduler.
        """
        params = dict(params or {})
        validate_params(algo, params)
        if algo in ("bfs", "msbfs"):
            # Normalize now so merging and slicing see plain int lists.
            key = MERGEABLE[algo]
            if key not in params:
                raise ProtocolError(f"{algo} request requires {key!r}")
        req = ServeRequest(
            id=request_id or f"r{next(self._ids)}",
            graph=str(graph),
            algo=algo,
            params=params,
            deadline=(
                time.monotonic() + float(deadline_s)
                if deadline_s is not None else None
            ),
        )
        with self._wake:
            if self._closed:
                raise ServeError("coalescer is closed")
            self.n_requests += 1
            self._pending.setdefault(
                self._batch_key(req.graph, req.algo, req.params), []
            ).append(req)
            self._wake.notify()
        return req.future

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                while not self._closed and not self._pending:
                    self._wake.wait()
                if self._closed and not self._pending:
                    return
                now = time.monotonic()
                due: list[tuple[tuple, list[ServeRequest]]] = []
                soonest = None
                for key, reqs in list(self._pending.items()):
                    age = now - reqs[0].enqueued
                    idle = self._in_flight < self._runners
                    full = len(reqs) >= self.max_batch
                    urgent = any(
                        r.deadline is not None and r.deadline - now
                        <= self.max_batch_delay
                        for r in reqs
                    )
                    if (self._closed or idle or full or urgent
                            or age >= self.max_batch_delay):
                        # max_batch is a hard cap, not just a flush
                        # trigger: a key can pile up more than max_batch
                        # requests while the runners are busy, and one
                        # runner taking them all would coalesce past the
                        # limit (max_batch=1 means one run per request).
                        del self._pending[key]
                        for i in range(0, len(reqs), self.max_batch):
                            due.append((key, reqs[i:i + self.max_batch]))
                            self._in_flight += 1
                    else:
                        wait = self.max_batch_delay - age
                        soonest = wait if soonest is None else min(soonest, wait)
                if not due:
                    # every runner busy: a finishing batch notifies
                    self._wake.wait(timeout=soonest)
                    continue
            for key, requests in due:
                self._runner_pool.submit(self._run_batch, key, requests)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _expire(self, req: ServeRequest) -> None:
        self.n_expired += 1
        req.future.set_exception(
            DeadlineExpired(
                f"request {req.id} ({req.algo} on {req.graph!r}) missed "
                f"its deadline after {time.monotonic() - req.enqueued:.3f}s "
                f"in queue"
            )
        )

    def _batch_policy(self, requests: list[ServeRequest]):
        """The context's policy bounded by the batch's latest deadline;
        None (the context's own policy) when a request is unbounded."""
        deadlines = [r.deadline for r in requests if r.deadline is not None]
        if not deadlines or len(deadlines) < len(requests):
            return None  # an unbounded request: the batch runs unbounded
        remaining = max(0.001, max(deadlines) - time.monotonic())
        return dataclasses.replace(
            policy_for(self.ctx), phase_deadline=remaining
        )

    def _run_batch(self, key: tuple, requests: list[ServeRequest]) -> None:
        try:
            self._run_live(key, requests)
        finally:
            with self._wake:
                self._in_flight -= 1
                self._wake.notify()

    def _run_live(self, key: tuple, requests: list[ServeRequest]) -> None:
        now = time.monotonic()
        live: list[ServeRequest] = []
        expired: list[ServeRequest] = []
        for req in requests:
            (expired if req.deadline is not None and req.deadline <= now
             else live).append(req)
        for req in expired:
            self._expire(req)
        if not live:
            return
        self.n_batches += 1
        self.n_coalesced += len(live) - 1
        if len(live) > 1:
            self.n_merged += len(live)
        queue_waits = [now - r.enqueued for r in live]
        self.queue_wait_total += float(sum(queue_waits))
        try:
            entry = self.registry.pin(live[0].graph)
        except ServeError as exc:
            for req in live:
                req.future.set_exception(exc)
            return
        try:
            algo = key[1]
            if algo in ("msbfs", "closeness") and live[0].algo in MERGEABLE:
                result, slicer = self._run_merged(algo, entry, live)
            else:
                result, slicer = self._run_dedup(entry, live)
                self.n_dedup_hits += len(live) - 1
            for req, wait in zip(live, queue_waits):
                if req.future.set_running_or_notify_cancel():
                    req.future.set_result(
                        self._envelope(req, result, slicer(req), wait, len(live))
                    )
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            for req in live:
                if not req.future.done():
                    req.future.set_exception(exc)
        finally:
            self.registry.unpin(live[0].graph)
            self._record_batch(key, live, queue_waits, expired)

    def _run_merged(self, algo: str, entry, requests: list[ServeRequest]):
        """One msbfs/closeness dispatch covering every request's sources."""
        g = entry.graph
        merged: list[int] = []
        index: dict[int, int] = {}
        full_closeness = False
        for req in requests:
            for s in self._request_sources(req, g):
                if s is None:  # closeness over all vertices
                    full_closeness = True
                elif s not in index:
                    index[s] = len(merged)
                    merged.append(s)
        base_params = dict(requests[0].params)
        if algo == "closeness":
            base_params["sources"] = (
                None if full_closeness or not merged else merged
            )
            result = self._execute("closeness", g, (), base_params, requests)
            value = result.value

            def slicer(req: ServeRequest):
                srcs = req.params.get("sources")
                if srcs is None:
                    return value
                srcs = np.asarray(list(srcs), dtype=np.int64)
                out = np.zeros_like(value)
                out[srcs] = value[srcs]
                return out

        else:  # msbfs (and bfs riding as one-lane msbfs)
            base_params.pop("sources", None)
            base_params.pop("source", None)
            result = self._execute(
                "msbfs", g, (np.asarray(merged, dtype=np.int64),),
                base_params, requests,
            )
            dist = result.value.distances

            def slicer(req: ServeRequest):
                if req.algo == "bfs":
                    return dist[index[int(req.params["source"])]]
                srcs = [int(s) for s in req.params["sources"]]
                rows = dist[[index[s] for s in srcs]]
                # A lane set's level count is its deepest reached level,
                # so the re-sliced result is bit-identical to an
                # isolated msbfs over exactly these sources.
                n_levels = int(rows.max()) if rows.size else 0
                return MSBFSResult(
                    np.asarray(srcs, dtype=np.int64), rows, max(0, n_levels)
                )

        return result, slicer

    def _run_dedup(self, entry, requests: list[ServeRequest]):
        """One run shared verbatim by every identical request."""
        req = requests[0]
        operands, kwargs = split_operands(req.algo, req.params)
        result = self._execute(req.algo, entry.graph, operands, kwargs, requests)
        return result, lambda _req: result.value

    def _request_sources(self, req: ServeRequest, g):
        if req.algo == "bfs":
            return [int(req.params["source"])]
        if req.algo == "msbfs":
            return [int(s) for s in req.params["sources"]]
        srcs = req.params.get("sources")
        if srcs is None:
            return [None]
        return [int(s) for s in srcs]

    def _execute(self, algo, graph, operands, kwargs, requests) -> RunResult:
        kwargs = dict(kwargs)
        kwargs.pop("ctx", None)
        kwargs.pop("trace", None)
        return obs_run(
            algo, graph, *operands,
            ctx=self.ctx,
            trace=self.trace,
            fault_policy=self._batch_policy(requests),
            **kwargs,
        )

    def _envelope(
        self,
        req: ServeRequest,
        batch_result: RunResult,
        value,
        queue_wait: float,
        batch_size: int,
    ) -> RunResult:
        extras = dict(batch_result.extras)
        extras["serve"] = {
            "request_id": req.id,
            "graph": req.graph,
            "queue_wait_s": round(queue_wait, 6),
            "batch_size": batch_size,
            "coalesced": batch_size > 1,
        }
        return dataclasses.replace(
            batch_result, algorithm=req.algo, value=value, extras=extras
        )

    def _record_batch(self, key, live, queue_waits, expired) -> None:
        if self.on_batch is None:
            return
        now = time.perf_counter()
        children = [
            {
                "name": "serve.request",
                "t0": now, "t1": now, "duration_s": 0.0,
                "attrs": {
                    "request_id": r.id, "algo": r.algo,
                    "queue_wait_s": round(w, 6), "expired": False,
                },
                "children": [],
            }
            for r, w in zip(live, queue_waits)
        ] + [
            {
                "name": "serve.request",
                "t0": now, "t1": now, "duration_s": 0.0,
                "attrs": {"request_id": r.id, "algo": r.algo, "expired": True},
                "children": [],
            }
            for r in expired
        ]
        self.on_batch(
            {
                "name": "serve.batch",
                "t0": now, "t1": now, "duration_s": 0.0,
                "attrs": {
                    "graph": key[0],
                    "algo": key[1],
                    "batch_size": len(live),
                    "n_expired": len(expired),
                    "queue_wait_max_s": round(max(queue_waits, default=0.0), 6),
                },
                "children": children,
            }
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": self.n_requests,
                "batches": self.n_batches,
                "merged_requests": self.n_merged,
                "dedup_hits": self.n_dedup_hits,
                "expired": self.n_expired,
                "in_flight": self._in_flight,
                "coalescing_hit_rate": (
                    self.n_coalesced / self.n_requests if self.n_requests else 0.0
                ),
                "mean_queue_wait_s": (
                    self.queue_wait_total / self.n_requests
                    if self.n_requests else 0.0
                ),
                "max_batch_delay_s": self.max_batch_delay,
                "max_batch": self.max_batch,
            }

    def close(self) -> None:
        """Flush pending batches, then stop the scheduler threads."""
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        self._dispatcher.join(timeout=10.0)
        self._runner_pool.shutdown(wait=True)

    def __enter__(self) -> "Coalescer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
