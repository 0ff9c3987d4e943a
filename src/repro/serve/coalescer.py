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
* **Answer memo** — a closeness score is a per-source scalar of an
  immutable resident graph, so a merged closeness batch runs only the
  sources its entry's memo (``ResidentGraph.closeness``, keyed by
  ``wf_improved``) has not answered yet, and answers the rest from it.
  The memo lives and dies with the entry; ``max_batch=1`` neither
  reads nor writes it, so it stays one run per request.

Mechanics: :meth:`Coalescer.submit` enqueues a request under its batch
key and returns a ``concurrent.futures.Future``.  A source-merged key
(msbfs / closeness) whose batch is running is *held*: its new requests
queue even while a runner is idle, and go out as one batch when the
running one finishes — a burst coalesces behind its own in-flight
batch, whose lane word costs about what a smaller one does.  A request
with a deadline is never held.  Any other key flushes as soon as a
runner is idle, so a lone request never waits; only while *every*
runner is busy does it build up, until one frees up, its oldest
request has waited ``max_batch_delay`` seconds or a deadline turned
urgent.  Either way a key flushes once ``max_batch`` requests
accumulated.  The knob is thus the longest a request waits while every
runner is busy on *other* keys; a held key's wait is bounded by the
remainder of its own batch.
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
the request was coalesced.  With an ``on_batch`` sink (the daemon's
profile) every counted batch runs traced under its own tracer, and its
timed ``serve.batch`` span (one ``serve.request`` per request plus the
algorithm's span tree) is handed to the sink.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import DeadlineExpired, GraphStructureError, ProtocolError, ServeError
from repro.obs.api import split_operands, validate_params
from repro.obs.runner import RunResult, run as obs_run
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.parallel.resilience import policy_for

__all__ = ["ServeRequest", "Coalescer", "MERGEABLE"]

#: algorithm -> name of the source argument that can be lane-merged.
#: ``bfs`` is served as a one-lane ``msbfs`` (identical distances; no
#: parent tree), which is what makes single-source requests mergeable.
MERGEABLE = {"bfs": "source", "msbfs": "sources", "closeness": "sources"}
#: batch-key algorithms whose batches are one lane-merged dispatch.
_MERGED = ("msbfs", "closeness")


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


def _normalize_sources(algo: str, params: dict) -> None:
    """Check a mergeable request's source ids and store them as plain
    ints, so merging and slicing see int lists and a non-integer id is
    refused here instead of truncated, or failing a merged batch."""
    from repro.kernels._frontier import vertex_ids

    key = MERGEABLE[algo]
    ids = params.get(key)
    if ids is None:
        if algo == "closeness":  # every vertex
            return
        raise ProtocolError(f"{algo} request requires {key!r}")
    try:
        got = vertex_ids([ids] if algo == "bfs" else ids, what=key).tolist()
    except (GraphStructureError, TypeError) as exc:
        raise ProtocolError(f"{algo} {key!r}: {exc}") from None
    params[key] = got[0] if algo == "bfs" else got


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
        self.on_batch = on_batch
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: dict[tuple, list[ServeRequest]] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._runners = max(1, batch_runners)
        self._in_flight = 0  # batches handed to the pool, unfinished (under _wake)
        self._key_flight: dict[tuple, int] = {}  # the same, per batch key
        # Observable coalescing counters (served by /v1/stats).
        self.n_requests = 0
        self.n_batches = 0
        self.n_merged = 0        # requests that shared a dispatch with others
        self.n_dedup_hits = 0    # identical-run waiters beyond the first
        self.n_coalesced = 0     # Σ (batch size − 1): dispatches saved
        self.n_expired = 0
        self.n_memo_hits = 0     # closeness sources answered from a memo
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
        if algo in MERGEABLE:
            _normalize_sources(algo, params)
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
                soonest = math.inf
                for key, reqs in list(self._pending.items()):
                    first_deadline = min(
                        (r.deadline for r in reqs if r.deadline is not None),
                        default=math.inf,
                    )
                    # a merged key with a batch running is held: its
                    # requests wait for that batch to finish and go out
                    # as the next one, unless they fill max_batch; a
                    # request with a deadline is never held
                    held = (key in self._key_flight and key[1] in _MERGED
                            and first_deadline == math.inf)
                    idle = self._in_flight < self._runners
                    urgent_in = first_deadline - now - self.max_batch_delay
                    aged_in = self.max_batch_delay - (now - reqs[0].enqueued)
                    if (self._closed or len(reqs) >= self.max_batch
                            or not held and (idle or urgent_in <= 0
                                             or aged_in <= 0)):
                        # max_batch is a hard cap, not just a flush
                        # trigger: a key can pile up more than max_batch
                        # requests while the runners are busy, and one
                        # runner taking them all would coalesce past the
                        # limit (max_batch=1 means one run per request).
                        del self._pending[key]
                        for i in range(0, len(reqs), self.max_batch):
                            due.append((key, reqs[i:i + self.max_batch]))
                            self._in_flight += 1
                            self._key_flight[key] = (
                                self._key_flight.get(key, 0) + 1
                            )
                    elif not held:
                        soonest = min(soonest, urgent_in, aged_in)
                if not due:
                    # runners busy or keys held: a finishing batch notifies
                    self._wake.wait(
                        timeout=None if soonest == math.inf else soonest
                    )
                    continue
            for key, requests in due:
                self._runner_pool.submit(self._run_batch, key, requests)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _expire(self, req: ServeRequest) -> None:
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
                self._key_flight[key] -= 1
                if not self._key_flight[key]:
                    del self._key_flight[key]
                self._wake.notify()

    def _run_live(self, key: tuple, requests: list[ServeRequest]) -> None:
        now = time.monotonic()
        live: list[ServeRequest] = []
        expired: list[ServeRequest] = []
        for req in requests:
            (expired if req.deadline is not None and req.deadline <= now
             else live).append(req)
        queue_waits = [now - r.enqueued for r in live]
        with self._lock:  # two runners update the counters stats() reads
            self.n_expired += len(expired)
            if live:
                self.n_batches += 1
                self.n_coalesced += len(live) - 1
                self.n_merged += len(live) if len(live) > 1 else 0
                self.queue_wait_total += float(sum(queue_waits))
        if not live:
            for req in expired:
                self._expire(req)
            return
        # A counted batch records under its own tracer when there is a
        # profile sink; without one it builds none.
        tr = Tracer() if self.on_batch is not None else NULL_TRACER
        with tr.span(
            "serve.batch", graph=key[0], algo=key[1],
            batch_size=len(live), n_expired=len(expired),
            queue_wait_max_s=round(max(queue_waits), 6),
        ) as batch_span:
            for req in expired:
                with tr.span("serve.request", request_id=req.id,
                             algo=req.algo, expired=True):
                    self._expire(req)
            result, slicer, error = self._run_pinned(key, live, batch_span)
            if result is not None and result.trace is not None:
                for sp in result.trace.children:  # the algorithm's spans
                    tr.graft(sp.to_dict())
            n_ran = sum(not r.future.done() for r in live)
            for req, wait in zip(live, queue_waits):
                with tr.span("serve.request", request_id=req.id,
                             algo=req.algo, queue_wait_s=round(wait, 6),
                             expired=False):
                    self._resolve(req, result, slicer, error, wait, n_ran)
        if tr:
            self.on_batch(tr.finish().children[0].to_dict())

    def _run_pinned(self, key: tuple, live: list[ServeRequest], span):
        """Run one batch on its pinned graph: ``(result, slicer, error)``."""
        try:
            entry = self.registry.pin(live[0].graph)
        except ServeError as exc:
            return None, None, exc
        try:
            if key[1] in _MERGED and live[0].algo in MERGEABLE:
                result, slicer = self._run_merged(key[1], entry, live, span)
            else:
                result, slicer = self._run_dedup(entry, live)
                with self._lock:
                    self.n_dedup_hits += len(live) - 1
            return result, slicer, None
        except BaseException as exc:  # noqa: BLE001 - futures carry it
            return None, None, exc
        finally:
            self.registry.unpin(live[0].graph)

    def _resolve(self, req, result, slicer, error, wait, n_ran) -> None:
        """Settle one request's future from its batch's outcome."""
        if req.future.done():  # a merge refused its sources, or cancelled
            return
        if error is None:
            try:
                value = self._envelope(req, result, slicer(req), wait, n_ran)
            except Exception as exc:  # noqa: BLE001 - the future carries it
                error = exc
        if error is not None:
            req.future.set_exception(error)
        elif req.future.set_running_or_notify_cancel():
            req.future.set_result(value)

    def _run_merged(self, algo: str, entry, requests: list[ServeRequest],
                    span):
        """One msbfs/closeness dispatch covering every request's sources;
        a request naming a source ``>= n`` fails alone (ProtocolError).
        Closeness runs only the sources ``entry``'s memo lacks."""
        g = entry.graph
        n = g.n_vertices
        for req in requests:
            bad = [s for s in self._request_sources(req)
                   if s is not None and s >= n]  # submit refused s < 0
            if bad and req.future.set_running_or_notify_cancel():
                req.future.set_exception(ProtocolError(
                    f"{req.algo} source {bad[0]} out of range [0, {n})"
                ))
        requests = [r for r in requests if not r.future.done()]
        if not requests:
            return None, None
        merged: list[int] = []
        index: dict[int, int] = {}
        full_closeness = False
        for req in requests:
            for s in self._request_sources(req):
                if s is None:  # closeness over all vertices
                    full_closeness = True
                elif s not in index:
                    index[s] = len(merged)
                    merged.append(s)
        base_params = dict(requests[0].params)
        if algo == "closeness":
            want = np.arange(n) if full_closeness else np.asarray(
                merged, dtype=np.int64)
            todo, memo = want, None
            if self.max_batch > 1:  # max_batch=1: one run per request
                wf = bool(base_params.get("wf_improved", True))
                with self._lock:  # two runners may open one entry's memo
                    memo = entry.closeness.get(wf)
                    if memo is None:
                        memo = entry.closeness[wf] = np.full(n, np.nan)
                    todo = want[np.isnan(memo[want])]
            base_params["sources"] = None if len(todo) == n else todo.tolist()
            result = self._execute("closeness", g, (), base_params, requests)
            value = result.value
            span.set(memo_hits=len(want) - len(todo))
            if memo is not None:
                with self._lock:  # a score's bits never change once set
                    memo[todo] = value[todo]
                    self.n_memo_hits += len(want) - len(todo)
                value = memo.copy()  # no response aliases the memo

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
            from repro.kernels.bfs import MSBFSResult

            def slicer(req: ServeRequest):
                if req.algo == "bfs":
                    return dist[index[req.params["source"]]]
                srcs = req.params["sources"]
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

    def _request_sources(self, req: ServeRequest):
        if req.algo == "bfs":
            return [req.params["source"]]
        srcs = req.params.get("sources")
        return [None] if srcs is None else srcs

    def _execute(self, algo, graph, operands, kwargs, requests) -> RunResult:
        kwargs = dict(kwargs)
        kwargs.pop("ctx", None)
        kwargs.pop("trace", None)
        return obs_run(
            algo, graph, *operands,
            ctx=self.ctx,
            trace=self.on_batch is not None,
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

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": self.n_requests,
                "batches": self.n_batches,
                "merged_requests": self.n_merged,
                "dedup_hits": self.n_dedup_hits,
                "memo_hits": self.n_memo_hits,
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
