"""Prefix-differential harness: incremental analytics vs full recompute.

The streaming engine's correctness claim is strong — after *every*
ingested batch its incremental results equal what the full batch
algorithms produce on the materialized snapshot, bit-for-bit where the
result is canonical:

* connected-component labels: bit-identical to
  :func:`~repro.kernels.connected.connected_components` (both sides use
  the canonical min-vertex-id labeling);
* degree and closeness top-k: bit-identical scores and ordering versus
  :func:`~repro.centrality.degree.degree_centrality` /
  :func:`~repro.centrality.closeness.closeness_centrality` on the
  snapshot (the closeness cache's component-level invalidation is exact,
  so even the *cached* entries must match);
* triangle/wedge/clustering stats: equal to a full
  :func:`~repro.metrics.clustering.triangle_counts` recount and the
  snapshot's degrees;
* community labels: the repaired partition's modularity is **no worse**
  than a fresh single-level :func:`~repro.community.pla.pla` run on the
  snapshot, and the engine-reported Q equals Q recomputed from its own
  labels.

The harness replays every batch prefix of crawler-generated event
streams (policy rotating rc/rw/bfs/mod across the shared fuzz corpus of
:func:`repro.qa.differential.corpus`), plus deterministic delete /
re-insert / no-op churn batches.  On a mismatch the event list is
shrunk greedily to a minimal failing reproducer and dumped as a
replayable ``.events`` artifact.  Planted incremental bugs
(:data:`PREFIX_FAULTS`) are the harness's self-test: each must be
caught *and* shrink small.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.dynamic.engine import ANALYTICS, StreamEngine, top_k
from repro.dynamic.events import (
    EdgeEvent,
    canonical_final_edges,
    group_batches,
    write_events,
)
from repro.dynamic.sources import CRAWL_POLICIES, crawl_events
from repro.graph import builder
from repro.graph.csr import Graph
from repro.parallel.runtime import ParallelContext
from repro.qa.differential import DEFAULT_ARTIFACT_DIR, CorpusGraph, corpus

__all__ = [
    "PREFIX_FAULTS",
    "PrefixFailure",
    "PrefixReport",
    "check_events",
    "event_stream",
    "run_prefix_differential",
    "shrink_events",
]

_TOL = 1e-9


# ---------------------------------------------------------------------------
# Event-stream generation
# ---------------------------------------------------------------------------
def event_stream(
    item: CorpusGraph,
    seed: int,
    *,
    policy: str = "bfs",
    batch_size: Optional[int] = None,
) -> tuple[int, list[EdgeEvent]]:
    """Crawl ``item`` into a timestamped event list, then churn it.

    The crawl reveals the graph batch-by-batch under ``policy``; the
    churn suffix appends deterministic delete, re-insert, duplicate-add
    and self-loop events so the delete/rebuild and no-op paths are
    exercised on every corpus graph.
    """
    g = item.csr()
    rng = np.random.default_rng(
        zlib.crc32(f"{seed}:{item.name}:{policy}".encode())
    )
    bs = batch_size if batch_size is not None else max(2, item.n // 4)
    events = crawl_events(g, policy=policy, batch_size=bs, rng=rng)
    if events:
        t = events[-1].t + 1
        pr = random.Random(zlib.crc32(f"churn:{seed}:{item.name}".encode()))
        edges = canonical_final_edges(events)
        sample = pr.sample(edges, min(len(edges), 6))
        half = len(sample) // 2
        events += [EdgeEvent("delete", u, v, t=t) for u, v, _ in sample]
        events += [
            EdgeEvent("add", u, v, t=t + 1, weight=w)
            for u, v, w in sample[:half]
        ]
        # No-op coverage: re-delete absent edges, duplicate an add,
        # and ship a self-loop (the engine must skip it).
        events += [
            EdgeEvent("delete", u, v, t=t + 1) for u, v, _ in sample[half:][:2]
        ]
        u0, v0, w0 = sample[0]
        if half:
            events.append(EdgeEvent("add", u0, v0, t=t + 1, weight=w0))
        events.append(EdgeEvent("add", 0, 0, t=t + 1))
    return g.n_vertices, events


def _ref_snapshot(n: int, prefix: Sequence[EdgeEvent]) -> Graph:
    """Independent materialization of the surviving edge set.

    The canonical CSR (explicit weights array, no dedupe) that the
    engine's merged snapshot must equal array for array — asserted per
    prefix.
    """
    edges = canonical_final_edges(prefix)
    src = np.asarray([u for u, _, _ in edges], dtype=np.int64)
    dst = np.asarray([v for _, v, _ in edges], dtype=np.int64)
    w = np.asarray([wt for _, _, wt in edges], dtype=np.float64)
    return builder.from_edge_array(
        n, src, dst, weights=w, directed=False, dedupe=False
    )


# ---------------------------------------------------------------------------
# Per-prefix checks
# ---------------------------------------------------------------------------
def _check_prefix(
    engine: StreamEngine,
    result,
    prefix: list[EdgeEvent],
    n: int,
    *,
    analytics: Sequence[str],
    k: int,
    ctx: ParallelContext,
) -> Optional[tuple[str, str]]:
    """Compare one batch's incremental results against full recompute.

    Returns ``(check_name, detail)`` on the first mismatch, else None.
    """
    snap = _ref_snapshot(n, prefix)
    own = engine.snapshot()
    if not (
        np.array_equal(own.offsets, snap.offsets)
        and np.array_equal(own.targets, snap.targets)
        and np.array_equal(own.edge_weights(), snap.edge_weights())
        and np.array_equal(own.arc_edge_ids, snap.arc_edge_ids)
        and own.n_edges == snap.n_edges
    ):
        return ("snapshot", "engine snapshot diverges from event replay")

    if "components" in analytics:
        from repro.kernels.connected import connected_components

        ref = connected_components(snap, ctx=ctx)
        if not np.array_equal(result.labels, ref):
            idx = np.nonzero(result.labels != ref)[0][:5].tolist()
            return (
                "components",
                f"labels mismatch at {idx}: "
                f"got {result.labels[idx].tolist()} "
                f"expected {ref[idx].tolist()}",
            )
        n_ref = int(np.unique(ref).shape[0])
        if result.n_components != n_ref:
            return (
                "components",
                f"n_components {result.n_components} != {n_ref}",
            )

    if "degree" in analytics:
        from repro.centrality.degree import degree_centrality

        ref_deg = degree_centrality(snap, ctx=ctx)
        if top_k(ref_deg, k) != result.degree_topk:
            return (
                "degree",
                f"top-{k} {result.degree_topk} != {top_k(ref_deg, k)}",
            )

    if "closeness" in analytics:
        from repro.centrality.closeness import closeness_centrality

        ref_clo = closeness_centrality(snap, ctx=ctx)
        if not np.array_equal(engine._clo, ref_clo):
            i = int(np.nonzero(engine._clo != ref_clo)[0][0])
            return (
                "closeness",
                f"cached value at {i}: {engine._clo[i]!r} != {ref_clo[i]!r}",
            )
        if top_k(ref_clo, k) != result.closeness_topk:
            return ("closeness", f"top-{k} ordering diverges")

    if "stats" in analytics:
        from repro.metrics.clustering import triangle_counts

        tri = int(triangle_counts(snap, ctx=ctx).sum()) // 3
        if result.n_triangles != tri:
            return ("stats", f"n_triangles {result.n_triangles} != {tri}")
        d = snap.degrees()
        wedges = int((d * d).sum() - d.sum()) // 2
        if result.n_wedges != wedges:
            return ("stats", f"n_wedges {result.n_wedges} != {wedges}")
        expect_gc = 3.0 * tri / wedges if wedges else 0.0
        if result.global_clustering != expect_gc:
            return (
                "stats",
                f"clustering {result.global_clustering!r} != {expect_gc!r}",
            )

    if "community" in analytics and n > 0:
        from repro.community.modularity import modularity
        from repro.community.pla import pla

        q_re = modularity(snap, result.community_labels)
        if abs(result.modularity - q_re) > _TOL:
            return (
                "community",
                f"reported Q {result.modularity!r} != recomputed {q_re!r}",
            )
        if snap.n_arcs > 0:
            full = pla(snap, seed=0, ctx=ctx)
            if result.modularity < float(full.modularity) - _TOL:
                return (
                    "community",
                    f"incremental Q {result.modularity!r} worse than "
                    f"full re-run {float(full.modularity)!r}",
                )
    return None


def check_events(
    n: int,
    events: Sequence[EdgeEvent],
    *,
    analytics: Sequence[str] = ANALYTICS,
    k: int = 5,
    ctx: Optional[ParallelContext] = None,
    fault_fn: Optional[Callable] = None,
) -> tuple[Optional[str], Optional[str], int]:
    """Replay ``events`` prefix-by-prefix under the differential checks.

    Returns ``(detail, check_name, n_batches_checked)``; ``detail`` is
    None when every prefix agrees with full recomputation.  This is
    also the replay entrypoint for saved ``.events`` artifacts.
    """
    own_ctx = ctx is None
    ctx = ctx or ParallelContext(1)
    try:
        engine = StreamEngine(
            n, analytics=analytics, k=k, resweep_passes=8, ctx=ctx
        )
        if fault_fn is not None:
            fault_fn(engine)
        prefix: list[EdgeEvent] = []
        n_batches = 0
        for batch in group_batches(events):
            try:
                result = engine.apply_batch(batch)
            except Exception as exc:
                return (f"{type(exc).__name__}: {exc}", "apply", n_batches)
            prefix.extend(batch)
            n_batches += 1
            bad = _check_prefix(
                engine, result, prefix, n, analytics=analytics, k=k, ctx=ctx
            )
            if bad is not None:
                check, detail = bad
                return (f"batch t={result.t}: {detail}", check, n_batches)
        return (None, None, n_batches)
    finally:
        if own_ctx:
            ctx.close()


# ---------------------------------------------------------------------------
# Planted incremental bugs (harness self-test)
# ---------------------------------------------------------------------------
def _fault_cc_skip_union(engine: StreamEngine) -> None:
    """Silently skip the engine's unions whose endpoints sum to a
    multiple of 3."""
    cc = engine._cc
    orig = cc.union

    def patched(u: int, v: int) -> bool:
        return (u + v) % 3 != 0 and orig(u, v)

    cc.union = patched  # type: ignore[method-assign]


def _fault_tri_double(engine: StreamEngine) -> None:
    """Double the batch triangle delta."""
    orig = engine._tri_delta
    engine._tri_delta = lambda *a: 2 * orig(*a)  # type: ignore[method-assign]


def _fault_degree_drift(engine: StreamEngine) -> None:
    """Leak one degree unit at the hottest vertex before each batch."""
    orig = engine.apply_batch

    def patched(events):
        if engine._deg.max(initial=0) >= 3:
            engine._deg[int(engine._deg.argmax())] -= 1
        return orig(events)

    engine.apply_batch = patched  # type: ignore[method-assign]


PREFIX_FAULTS: dict[str, tuple[str, Callable[[StreamEngine], None]]] = {
    "cc_skip_union": ("components", _fault_cc_skip_union),
    "tri_double": ("stats", _fault_tri_double),
    "degree_drift": ("degree", _fault_degree_drift),
}


# ---------------------------------------------------------------------------
# Shrinking + artifacts
# ---------------------------------------------------------------------------
def shrink_events(
    events: Sequence[EdgeEvent],
    still_fails: Callable[[list[EdgeEvent]], bool],
    *,
    max_evals: int = 300,
) -> list[EdgeEvent]:
    """Greedy event-list minimization, deterministic and budget-bounded."""
    best = list(events)
    evals = 0
    progress = True
    while progress and evals < max_evals:
        progress = False
        for i in range(len(best)):
            cand = best[:i] + best[i + 1 :]
            evals += 1
            if still_fails(cand):
                best = cand
                progress = True
                break
            if evals >= max_evals:
                break
    return best


@dataclass
class PrefixFailure:
    """One incremental-vs-full mismatch, with its event reproducer."""

    check: str
    graph_name: str
    policy: str
    detail: str
    n_vertices: int
    events: list[EdgeEvent]
    minimal: Optional[list[EdgeEvent]] = None
    artifact: Optional[Path] = None

    def summary(self) -> str:
        where = f"{self.check} [{self.policy}] on {self.graph_name}"
        extra = (
            f" (shrunk to {len(self.minimal)} events)"
            if self.minimal is not None
            else ""
        )
        return f"{where}: {self.detail}{extra}"


@dataclass
class PrefixReport:
    """Outcome of one prefix-differential run."""

    seed: int
    analytics: tuple = ANALYTICS
    n_graphs: int = 0
    n_batches: int = 0
    failures: list[PrefixFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"prefix-differential check: seed={self.seed} "
            f"graphs={self.n_graphs} batch_prefixes={self.n_batches} "
            f"failures={len(self.failures)} [{self.elapsed_seconds:.1f}s]"
        ]
        lines += [f"  FAIL {f.summary()}" for f in self.failures]
        return "\n".join(lines)


def _write_artifact(failure: PrefixFailure, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    events = failure.minimal if failure.minimal is not None else failure.events
    path = directory / f"prefix-{failure.check}-{failure.graph_name}.events"
    write_events(path, events, n_vertices=failure.n_vertices)
    with open(path, "a") as f:
        f.write(
            f"# prefix-differential failure: {failure.detail}\n"
            "# replay: n, events = read_events(path); "
            "check_events(n, events)\n"
        )
    return path


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def run_prefix_differential(
    seed: int = 0,
    *,
    n_graphs: int = 24,
    budget: Optional[float] = None,
    analytics: Sequence[str] = ANALYTICS,
    k: int = 5,
    batch_size: Optional[int] = None,
    backend: str = "serial",
    n_workers: int = 1,
    fault: Optional[str] = None,
    artifact_dir: Optional[Path] = DEFAULT_ARTIFACT_DIR,
    shrink_failures: bool = True,
    max_failures: int = 6,
) -> PrefixReport:
    """Replay the fuzz corpus through the streaming engine, prefix by
    prefix, against full batch recomputation.  See module docstring.

    Crawl policy rotates rc/rw/bfs/mod across corpus graphs so every
    policy is exercised each run.  ``fault`` plants one incremental bug
    from :data:`PREFIX_FAULTS`; shrinking then uses only the faulted
    analytic so minimization stays cheap.
    """
    for a in analytics:
        if a not in ANALYTICS:
            raise ValueError(f"unknown analytic {a!r}; choose from {ANALYTICS}")
    fault_check: Optional[str] = None
    fault_fn: Optional[Callable] = None
    if fault is not None:
        if fault not in PREFIX_FAULTS:
            raise ValueError(
                f"unknown fault {fault!r}; choose from {sorted(PREFIX_FAULTS)}"
            )
        fault_check, fault_fn = PREFIX_FAULTS[fault]
    t0 = time.perf_counter()
    report = PrefixReport(seed=seed, analytics=tuple(analytics))
    ctx = ParallelContext(n_workers, backend=backend)
    try:
        for i, item in enumerate(corpus(seed, n_graphs)):
            if budget is not None and time.perf_counter() - t0 > budget:
                break
            if len(report.failures) >= max_failures:
                break
            policy = CRAWL_POLICIES[i % len(CRAWL_POLICIES)]
            n, events = event_stream(
                item, seed, policy=policy, batch_size=batch_size
            )
            report.n_graphs += 1
            detail, check, n_batches = check_events(
                n, events, analytics=analytics, k=k, ctx=ctx,
                fault_fn=fault_fn,
            )
            report.n_batches += n_batches
            if detail is None:
                continue
            failure = PrefixFailure(
                check=check or "unknown",
                graph_name=item.name,
                policy=policy,
                detail=detail,
                n_vertices=n,
                events=events,
            )
            if shrink_failures:
                # Shrink against the narrowest analytic set that still
                # reproduces: the failing check alone (always falling
                # back to the full set for apply-time crashes).
                sub: Sequence[str] = (
                    (check,)
                    if check in ANALYTICS
                    else tuple(analytics)
                )
                failure.minimal = shrink_events(
                    events,
                    lambda ev: check_events(
                        n, ev, analytics=sub, k=k, ctx=ctx, fault_fn=fault_fn
                    )[0] is not None,
                )
            if artifact_dir is not None:
                failure.artifact = _write_artifact(
                    failure, Path(artifact_dir)
                )
            report.failures.append(failure)
    finally:
        ctx.close()
    report.elapsed_seconds = time.perf_counter() - t0
    return report
