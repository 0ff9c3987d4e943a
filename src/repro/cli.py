"""Command-line interface: explore, cluster, partition, generate, convert.

Mirrors the utility programs the original SNAP distribution shipped::

    python -m repro analyze  graph.txt
    python -m repro cluster  graph.txt --algorithm pla
    python -m repro partition graph.txt -k 8 --method kmetis
    python -m repro generate rmat --scale 12 --edge-factor 8 -o out.txt
    python -m repro convert  graph.txt out.graph --to metis
    python -m repro profile  --rmat-scale 10 -o profile.json
    python -m repro check    --seed 0 --budget 30
    python -m repro chaos    --backends thread,process
    python -m repro serve    --graph web=graph.txt --port 8265

``analyze``, ``cluster``, ``partition``, ``stream`` and ``serve`` share
one execution-options surface (:mod:`repro.cli_options`): ``--backend
{serial,thread,process}`` / ``--workers P`` pick the execution
backend and ``--profile out.json`` records the run's span tree, cost
model and pool gauges (the first four run through
:func:`repro.obs.run` and write its :class:`~repro.obs.RunResult`
document); ``--timeout SEC`` / ``--retries N`` arm the fault-tolerant
dispatch layer (see DESIGN.md §8).  ``serve`` starts the long-lived
graph-service daemon (DESIGN.md §10): resident shared graphs behind a
request-coalescing scheduler over HTTP/JSON.  ``profile`` is the dedicated
measurement front-end: it runs a set of registered algorithms under
full tracing and writes one JSON document per run.  ``chaos`` injects
every fault kind on every backend and asserts recovery with
bit-identical results.

Graphs are read from whitespace edge lists (``u v [w]``), METIS
(``.graph``), DIMACS (``.gr``/``.dimacs``) or NumPy (``.npz``) files,
chosen by extension.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro.cli_options import ExecutionOptions, add_execution_flags
from repro.durable import RecordLog, write_json_atomic
from repro.errors import (
    ConvergenceError,
    CorruptCheckpoint,
    PartitioningError,
    SnapError,
)
from repro.graph import io as graph_io
from repro.graph.io import read_auto as _load
from repro.obs import algorithm, run as obs_run

_WRITERS = {
    "edgelist": graph_io.write_edge_list,
    "metis": graph_io.write_metis,
    "dimacs": graph_io.write_dimacs,
    "npz": graph_io.save_npz,
}


def _run(args: argparse.Namespace, algo, graph, *operands, **kwargs):
    """Run ``algo`` (a registry name or callable) through
    :func:`repro.obs.run` under the shared execution flags; traced only
    under ``--profile``."""
    opts = ExecutionOptions.from_args(args)
    return obs_run(
        algo, graph, *operands,
        backend=opts.backend, n_workers=opts.workers,
        trace=opts.profile is not None, fault_policy=opts.fault_policy(),
        **kwargs,
    )


def _save_profile(args: argparse.Namespace, res) -> None:
    """Under ``--profile``, write the run's document plus the command."""
    if args.profile:
        res.save(args.profile, command=args.command)
        print(f"profile written to {args.profile}")


@functools.cache
def _preprocess():
    """``analyze`` runs the preprocessing battery as one (unregistered)
    algorithm, so its kernels nest under one root span."""
    from repro.metrics import preprocess

    return algorithm("preprocess", register=False)(preprocess)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro import metrics

    g = _load(args.graph, directed=args.directed)
    print(f"graph: {g}")
    gg = g.as_undirected() if g.directed else g
    res = _run(args, _preprocess(), gg)
    _save_profile(args, res)
    report = res.value
    print(f"components          : {report.n_components} "
          f"(largest {report.largest_component_fraction:.1%})")
    print(f"average degree      : {report.average_degree:.2f}")
    print(f"degree skewness     : {report.degree_skewness:.2f}")
    print(f"clustering coeff    : {report.average_clustering:.4f}")
    print(f"assortativity       : {report.assortativity:+.4f}")
    print(f"bipartite           : {report.bipartite}")
    print(f"articulation points : {report.n_articulation_points}")
    print(f"bridges             : {report.n_bridges}")
    print(f"small-world profile : {report.looks_small_world}")
    if args.paths:
        aspl = metrics.average_shortest_path_length(
            gg, n_samples=min(gg.n_vertices, 64),
            rng=np.random.default_rng(0),
        )
        diam = metrics.effective_diameter(
            gg, n_samples=min(gg.n_vertices, 64),
            rng=np.random.default_rng(0),
        )
        print(f"avg shortest path   : {aspl:.2f} (sampled)")
        print(f"effective diameter  : {diam:.1f} (90th pct, sampled)")
    return 0


#: ``cluster -a`` choice -> (registry name, the flags it takes).
_CLUSTER_ALGORITHMS = {
    "pla": ("pla", ("seed",)),
    "pma": ("pma", ()),
    "pbd": ("pbd", ("patience", "seed")),
    "gn": ("girvan_newman", ("patience",)),
    "cnm": ("cnm", ()),
}

#: ``partition -m`` choice -> (registry name, fixed params).
_PARTITION_METHODS = {
    "kmetis": ("multilevel_kway", {}),
    "pmetis": ("multilevel_recursive_bisection", {}),
    "spectral-rqi": ("spectral_kway", {"method": "rqi"}),
    "spectral-lan": ("spectral_kway", {"method": "lanczos"}),
}


def _cmd_cluster(args: argparse.Namespace) -> int:
    g = _load(args.graph, directed=args.directed)
    if g.directed:
        g = g.as_undirected()
    name, flags = _CLUSTER_ALGORITHMS[args.algorithm]
    res = _run(args, name, g, **{f: getattr(args, f) for f in flags})
    result = res.value
    print(f"{result.summary()}  [{res.elapsed_seconds:.2f}s]")
    _save_profile(args, res)
    if args.output:
        with open(args.output, "w") as f:
            for v, lab in enumerate(result.labels):
                f.write(f"{v} {int(lab)}\n")
        print(f"labels written to {args.output}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.partitioning import edge_cut, partition_balance

    g = _load(args.graph, directed=args.directed)
    if g.directed:
        g = g.as_undirected()
    name, params = _PARTITION_METHODS[args.method]
    try:
        res = _run(args, name, g, args.k, **params)
    except (ConvergenceError, PartitioningError) as exc:
        print(f"partitioning failed: {exc}", file=sys.stderr)
        return 1
    parts = res.value
    print(f"edge cut: {edge_cut(g, parts):,.0f}")
    print(f"balance : {partition_balance(g, parts, args.k):.3f}")
    _save_profile(args, res)
    if args.output:
        np.savetxt(args.output, parts, fmt="%d")
        print(f"partition written to {args.output}")
    return 0


#: ``repro profile`` runnable set: registry name -> extra kwargs.  pbd
#: gets bounded patience so divisive runs terminate quickly on R-MAT
#: inputs; every entry must accept the canonical keyword surface.
_PROFILE_ALGORITHMS = {
    "betweenness": {},
    "closeness": {},
    "pbd": {"patience": 5, "max_iterations": 300, "seed": 0},
    "connected_components": {},
    "multilevel_kway": {},
    "pla": {"seed": 0},
}


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.graph is None and args.rmat_scale is None:
        print("profile: provide a graph file or --rmat-scale", file=sys.stderr)
        return 2
    if args.graph is not None:
        g = _load(args.graph)
        source = args.graph
    else:
        from repro.generators import rmat

        g = rmat(
            args.rmat_scale, args.edge_factor,
            rng=np.random.default_rng(args.seed),
        )
        source = f"rmat(scale={args.rmat_scale}, ef={args.edge_factor})"
    if g.directed:
        g = g.as_undirected()
    names = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    unknown = [a for a in names if a not in _PROFILE_ALGORITHMS]
    if unknown:
        print(
            f"profile: unknown algorithm(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(_PROFILE_ALGORITHMS))}",
            file=sys.stderr,
        )
        return 2
    print(f"graph: {g}  ({source})")
    doc: dict = {
        "graph": {"source": source, "n_vertices": g.n_vertices,
                  "n_edges": g.n_edges},
        "backend": args.backend or "serial",
        "n_workers": args.workers,
        "runs": {},
    }
    for name in names:
        kwargs = dict(_PROFILE_ALGORITHMS[name])
        operands = (args.k,) if name == "multilevel_kway" else ()
        res = obs_run(
            name, g, *operands,
            backend=args.backend, n_workers=args.workers, **kwargs,
        )
        doc["runs"][name] = res.to_dict()
        util = res.pool.utilization(res.n_workers)
        print(f"\n== {name}: {res.elapsed_seconds:.3f}s "
              f"(pool utilization {util:.0%}) ==")
        print(res.flame(max_depth=args.max_depth))
    out = Path(args.output)
    write_json_atomic(out, doc, indent=2, sort_keys=True)
    print(f"\nprofile written to {out}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Streaming ingestion: apply timestamped edge batches, maintain
    incremental analytics, print one line per batch (DESIGN.md §11)."""
    from repro.dynamic import (
        StreamEngine,
        crawl_events,
        group_batches,
        read_events,
        write_events,
    )

    analytics = tuple(
        a.strip() for a in args.analytics.split(",") if a.strip()
    )
    if str(args.source).endswith(".events"):
        n, events = read_events(args.source)
        origin = f"{args.source} ({len(events)} events)"
    else:
        g = _load(args.source, directed=args.directed)
        events = crawl_events(
            g,
            policy=args.policy,
            batch_size=args.batch_size,
            max_batches=args.max_batches,
            rng=np.random.default_rng(args.seed),
        )
        n = g.n_vertices
        origin = (
            f"crawl of {args.source} (policy={args.policy}, "
            f"{len(events)} events)"
        )
        if args.save_events:
            write_events(args.save_events, events, n_vertices=n)
            print(f"events written to {args.save_events}")
    ckpt_path = None
    if args.checkpoint_dir:
        ckpt_dir = Path(args.checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = ckpt_dir / "stream.ckpt"

    @algorithm("stream", register=False)
    def replay(events, *, ctx=None):
        batches = list(group_batches(events))
        engine = StreamEngine(n, analytics=analytics, k=args.k, ctx=ctx)
        log, n_logged = None, 0
        if ckpt_path is not None:
            # Crash resume: the log holds one record per *completed*
            # batch (appended after each apply), so re-applying the
            # logged batches and continuing at the next input batch
            # applies the interrupted batch exactly once.
            log = RecordLog(ckpt_path, kind=STREAM_CHECKPOINT_KIND,
                            params=engine._config())
            logged = log.load()
            if logged is not None:
                _check_stream_resume(logged, ckpt_path, batches)
                n_logged = len(logged)
                print(f"resumed {ckpt_path}: {n_logged} batches replayed")
        print(f"stream: {origin} -> {n} vertices, analytics={analytics}")
        rows = []
        for i, batch in enumerate(batches):
            r = engine.apply_batch(batch)
            rows.append(r.summary())
            if i < n_logged:
                continue
            if log is not None:
                log.append(_stream_record(batch))
            line = (
                f"  t={r.t:<4d} events={r.n_events:<4d} "
                f"applied={r.n_applied:<4d} edges={r.n_edges:<6d}"
            )
            if r.n_components is not None:
                line += f" components={r.n_components:<5d}"
            if r.n_triangles is not None:
                line += f" triangles={r.n_triangles:<6d}"
            if r.modularity is not None:
                line += f" Q={r.modularity:.4f}"
            line += f" crc={r.checksum:08x}"
            print(line)
        return engine, rows

    res = _run(args, replay, events)
    # Replayed batches included: a resumed run's output document is
    # bit-identical to an uninterrupted one (no timing fields).
    engine, rows = res.value
    print(
        f"stream done: {len(rows)} batches, {engine.n_edges} edges "
        f"[{res.elapsed_seconds:.2f}s]"
    )
    _save_profile(args, res)
    if args.output:
        doc = {
            "source": str(args.source),
            "n_vertices": n,
            "analytics": list(analytics),
            "k": args.k,
            "batches": rows,
        }
        write_json_atomic(Path(args.output), doc, indent=2, sort_keys=True)
        print(f"results written to {args.output}")
    return 0


#: ``RecordLog`` kind of ``repro stream`` checkpoints (DESIGN §13).
STREAM_CHECKPOINT_KIND = "stream-checkpoint"


def _stream_record(batch) -> list:
    """A batch as its stream-checkpoint record."""
    return [(e.kind, e.u, e.v, e.t, e.weight) for e in batch]


def _check_stream_resume(logged, ckpt_path, batches) -> None:
    """Refuse a stream checkpoint that does not match this run's input.

    The logged batches must be an exact prefix of the input batches
    (same events, same order) — otherwise "resume" would silently splice
    two different streams together.  (The engine config is checked by
    the log's params on load.)
    """
    if len(logged) > len(batches):
        raise CorruptCheckpoint(
            f"corrupt checkpoint {ckpt_path}: {len(logged)} applied "
            f"batches but the input stream has only {len(batches)}"
        )
    for i, (record, batch) in enumerate(zip(logged, batches)):
        if record != _stream_record(batch):
            raise CorruptCheckpoint(
                f"corrupt checkpoint {ckpt_path}: applied batch {i} is "
                "not a prefix of this input stream (different events) — "
                "delete the checkpoint or rerun with the original input"
            )


def _cmd_check_stream(args: argparse.Namespace) -> int:
    """``repro check --stream``: the prefix-differential harness."""
    from repro.qa import prefix as pfx

    if args.fault is not None and args.fault not in pfx.PREFIX_FAULTS:
        print(
            f"check --stream: unknown fault {args.fault!r}; "
            f"known: {', '.join(sorted(pfx.PREFIX_FAULTS))}",
            file=sys.stderr,
        )
        return 2
    analytics = (
        tuple(c.strip() for c in args.checks.split(",") if c.strip())
        if args.checks
        else pfx.ANALYTICS
    )
    backend = args.backends.split(",")[0].strip() or "serial"
    if args.no_artifacts:
        artifact_dir = None
    elif args.artifacts is not None:
        artifact_dir = Path(args.artifacts)
    else:
        artifact_dir = pfx.DEFAULT_ARTIFACT_DIR
    report = pfx.run_prefix_differential(
        args.seed,
        n_graphs=args.graphs,
        budget=args.budget,
        analytics=analytics,
        backend=backend,
        n_workers=args.workers,
        fault=args.fault,
        artifact_dir=artifact_dir,
        shrink_failures=not args.no_shrink,
    )
    print(report.summary())
    for f in report.failures:
        if f.artifact is not None:
            print(f"  reproducer: {f.artifact}")
    if report.ok:
        print(
            f"OK: {report.n_batches} batch prefixes matched full "
            f"recomputation (analytics={'/'.join(analytics)})"
        )
    return 0 if report.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.qa import differential as diff

    if args.stream:
        return _cmd_check_stream(args)

    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    checks = (
        tuple(c.strip() for c in args.checks.split(",") if c.strip())
        if args.checks
        else None
    )
    if args.fault is not None and args.fault not in diff.FAULTS:
        print(
            f"check: unknown fault {args.fault!r}; "
            f"known: {', '.join(sorted(diff.FAULTS))}",
            file=sys.stderr,
        )
        return 2
    if args.no_artifacts:
        artifact_dir = None
    elif args.artifacts is not None:
        artifact_dir = Path(args.artifacts)
    else:
        artifact_dir = diff.DEFAULT_ARTIFACT_DIR
    report = diff.run_differential(
        args.seed,
        n_graphs=args.graphs,
        budget=args.budget,
        backends=backends,
        checks=checks,
        n_workers=args.workers,
        fault=args.fault,
        chaos=args.chaos,
        artifact_dir=artifact_dir,
        shrink_failures=not args.no_shrink,
    )
    print(report.summary())
    for f in report.failures:
        if f.artifact is not None:
            print(f"  reproducer: {f.artifact}")
    if report.ok:
        print(
            f"OK: {report.n_runs} oracle comparisons agreed across "
            f"backends={'/'.join(backends)}"
        )
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-matrix self-test: every fault kind on every backend must be
    survived with results bit-identical to the fault-free run."""
    from repro.generators import rmat
    from repro.parallel.chaos import FAULT_KINDS, ChaosPlan, Fault
    from repro.parallel.resilience import FaultPolicy

    g = rmat(
        args.scale, args.edge_factor, rng=np.random.default_rng(args.seed)
    )
    if g.directed:
        g = g.as_undirected()
    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    unknown = [k for k in kinds if k not in FAULT_KINDS]
    if unknown:
        print(
            f"chaos: unknown fault kind(s) {', '.join(unknown)}; "
            f"known: {', '.join(FAULT_KINDS)}",
            file=sys.stderr,
        )
        return 2
    print(f"graph: {g}  (rmat scale={args.scale})")
    failures = 0
    for backend in backends:
        baseline = obs_run(
            args.algorithm, g, backend=backend,
            n_workers=args.workers, trace=False,
        ).value
        for kind in kinds:
            plan = ChaosPlan([Fault(kind, task_index=0, hang_seconds=1.0)])
            policy = FaultPolicy(
                task_timeout=0.25 if kind == "hang" else None,
            )
            res = obs_run(
                args.algorithm, g, backend=backend, n_workers=args.workers,
                trace=False, fault_policy=policy, chaos=plan,
            )
            identical = np.array_equal(
                np.asarray(baseline), np.asarray(res.value)
            )
            ok = identical and plan.n_fired >= 1
            failures += not ok
            stats = res.pool
            print(
                f"  {backend:7s} {kind:5s} "
                f"{'ok  ' if ok else 'FAIL'} "
                f"injected={stats.faults_injected} retries={stats.retries} "
                f"timeouts={stats.task_timeouts} "
                f"crashes={stats.worker_crashes} "
                f"rebuilds={stats.pool_rebuilds} "
                f"degradations={stats.degradations} "
                f"shm_fallbacks={stats.shm_fallbacks}"
                + ("" if identical else "  << result diverged")
            )
    total = len(backends) * len(kinds)
    print(
        f"chaos matrix: {total - failures}/{total} cells recovered "
        f"bit-identically"
    )
    return 0 if failures == 0 else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro import generators

    rng = np.random.default_rng(args.seed)
    if args.family == "rmat":
        g = generators.rmat(args.scale, args.edge_factor, rng=rng)
    elif args.family == "smallworld":
        g = generators.watts_strogatz(args.n, args.k, args.p, rng=rng)
    elif args.family == "random":
        g = generators.gnm_random(args.n, args.m, rng=rng)
    elif args.family == "road":
        g = generators.road_network(args.n, args.k, rng=rng)
    else:  # planted
        g = generators.planted_partition(
            args.n // args.blocks, args.p_in, args.p_out,
            n_blocks=args.blocks, rng=rng,
        ).graph
    print(f"generated: {g}")
    _WRITERS["npz" if args.output.endswith(".npz") else "edgelist"](
        g, args.output
    )
    print(f"written to {args.output}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    g = _load(args.input, directed=args.directed)
    _WRITERS[args.to](g, args.output)
    print(f"{g} → {args.output} ({args.to})")
    return 0


def _parse_size(text: str) -> int:
    """Parse a byte size like ``512M``, ``2G``, ``800K`` or a plain int."""
    s = text.strip().upper()
    mult = 1
    for suffix, m in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if s.endswith(suffix + "B"):
            s, mult = s[:-2], m
            break
        if s.endswith(suffix):
            s, mult = s[:-1], m
            break
    try:
        return int(float(s) * mult)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size {text!r}") from None


def _cmd_shard(args: argparse.Namespace) -> int:
    """Build / inspect / verify / run a sharded graph set (DESIGN §12)."""
    from repro.sharded import (
        BSPDriver,
        MemoryBudget,
        build_shard_set,
        open_shard_set,
        sharded_closeness,
        sharded_connected_components,
        sharded_msbfs,
        sharded_pla,
    )
    from repro.kernels.segments import distinct

    if args.action == "build":
        g = _load(args.graph, directed=False)
        if args.k is None and args.mem_budget is None:
            print("error: pass -k or --mem-budget to size the shard set",
                  file=sys.stderr)
            return 1
        ss = build_shard_set(
            g, args.out, k=args.k, mem_budget=args.mem_budget,
            method=args.method, seed=args.seed,
        )
        d = ss.describe()
        print(f"shard set written to {ss.root}")
        print(f"  k={d['k']}  partitioner={d['partitioner']}  "
              f"edge_cut={d['edge_cut']:,d}  halo={d['total_halo']:,d}")
        print(f"  bytes on disk {d['total_bytes']:,d} "
              f"(in-core CSR {d['in_core_bytes']:,d}, largest shard "
              f"{d['largest_shard_bytes']:,d})")
        return 0

    ss = open_shard_set(args.path)
    if args.action == "info":
        d = ss.describe()
        if args.json:
            print(json.dumps(d, indent=2, sort_keys=True))
            return 0
        print(f"{d['path']}: n={d['n_vertices']:,d} m={d['n_edges']:,d} "
              f"k={d['k']} weighted={d['weighted']} "
              f"partitioner={d['partitioner']}")
        print(f"  edge_cut={d['edge_cut']:,d}  total_halo={d['total_halo']:,d}  "
              f"bytes={d['total_bytes']:,d}  "
              f"in_core={d['in_core_bytes']:,d}")
        for s in d["shards"]:
            print(f"  shard {s['index']:4d}: owned={s['n_owned']:,d} "
                  f"halo={s['n_halo']:,d} arcs={s['n_arcs']:,d} "
                  f"boundary={s['n_boundary_arcs']:,d} "
                  f"max_deg={s['degree_max']:,d} bytes={s['bytes']:,d}")
        return 0

    if args.action == "verify":
        problems = ss.verify(deep=args.deep)
        if problems:
            for p in problems:
                print(f"FAIL {p}")
            return 1
        n_files = ss.k + 1
        print(f"ok: {n_files} payload files verified"
              + (", stitch round-trip ok" if args.deep else ""))
        return 0

    # action == "run"
    budget = None
    if args.mem_budget is not None:
        budget = MemoryBudget(args.mem_budget, enforce_rss=args.enforce_rss)
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    ckpt = None
    if args.checkpoint_every or args.resume or args.checkpoint_dir:
        from repro.sharded.bsp import CHECKPOINT_DIRNAME, BSPCheckpointer

        ckpt = BSPCheckpointer(
            Path(args.checkpoint_dir)
            if args.checkpoint_dir
            else ss.root / CHECKPOINT_DIRNAME,
            every=max(1, args.checkpoint_every),
            resume=args.resume,
        )
    ctx = ExecutionOptions.from_args(args).make_context()
    driver = BSPDriver(ss, ctx=ctx, mem_budget=budget, checkpointer=ckpt)
    # The run-level checkpoint (tag "run") records each finished
    # algorithm as ``(algo, result row)``, so a resumed multi-algorithm
    # run skips them and the in-progress one restarts from its last
    # durable superstep.  Its parameters refuse a checkpoint from a
    # different invocation (other algos, seed or source selection).
    completed = dict(driver.resume("run", {
        "algos": algos,
        "seed": int(args.seed),
        "sources": args.sources or "",
        "n_sources": int(args.n_sources),
        "n_vertices": ss.n_vertices,
        "n_edges": ss.n_edges,
    }) or [])
    if completed:
        print(f"resumed {ckpt.path_for('run')}: "
              f"{', '.join(completed)} already complete")
    out: dict = {"path": str(ss.root), "algos": {}}
    rng = np.random.default_rng(args.seed)
    t_all = time.perf_counter()
    for algo in algos:
        if algo in completed:
            out["algos"][algo] = completed[algo]
            continue
        t0 = time.perf_counter()
        if algo == "msbfs":
            if args.sources:
                srcs = [int(x) for x in args.sources.split(",")]
            else:
                srcs = sorted(
                    int(x) for x in
                    rng.choice(ss.n_vertices, size=min(args.n_sources,
                               ss.n_vertices), replace=False)
                )
            res = sharded_msbfs(ss, srcs, driver=driver)
            info = {"sources": srcs, "n_levels": res.n_levels,
                    "reached": int((res.distances >= 0).sum()),
                    "checksum": int(res.distances.astype(np.int64).sum())}
        elif algo == "closeness":
            srcs = ([int(x) for x in args.sources.split(",")]
                    if args.sources else None)
            cc = sharded_closeness(ss, sources=srcs, driver=driver)
            info = {"sum": float(cc.sum()), "max": float(cc.max())}
        elif algo == "components":
            labels = sharded_connected_components(ss, driver=driver)
            info = {"n_components": int(distinct(labels).shape[0])}
        elif algo == "pla":
            res = sharded_pla(ss, driver=driver)
            info = {"modularity": res.modularity,
                    "n_clusters": res.n_clusters, **res.extras}
        else:
            print(f"error: unknown algo {algo!r}", file=sys.stderr)
            return 1
        info["seconds"] = time.perf_counter() - t0
        out["algos"][algo] = completed[algo] = info
        driver.maybe_checkpoint("run", (algo, info), force=True)
    out["seconds_total"] = time.perf_counter() - t_all
    out["metrics"] = driver.metrics()
    if args.metrics:
        write_json_atomic(Path(args.metrics), out, indent=2)
        print(f"metrics written to {args.metrics}")
    else:
        print(json.dumps(out, indent=2))
    # Every algorithm finished and the results are out the door; a
    # stale run.ckpt would make a later --resume skip real work.
    driver.clear_checkpoint("run")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Start the graph-service daemon (DESIGN.md §10)."""
    from repro.serve.server import ReproServer, ServeConfig

    preload: list[tuple[str, str]] = []
    for spec in args.graph or []:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = spec, spec
        preload.append((name, path))
    config = ServeConfig(
        host=args.host,
        port=args.port,
        options=ExecutionOptions.from_args(args),
        max_bytes=args.max_bytes,
        max_batch_delay=args.max_batch_delay,
        max_batch=args.max_batch,
        batch_runners=args.batch_runners,
        state_dir=args.state_dir,
    )
    with ReproServer(config, verbose=args.verbose) as server:
        # Accept connections immediately: during state-log replay the
        # data plane answers 503/recovering, /v1/health stays live.
        http_thread = server.start_background()
        summary = server.recover()
        if any(summary.values()):
            print(
                "recovered state log: "
                f"{summary['loads']} loads, {summary['evicts']} evicts, "
                f"{summary['ingests']} ingests, {summary['skipped']} skipped"
            )
        for name, path in preload:
            entry = server.load(path, name=name)
            print(f"resident: {name} = {entry.graph} ({entry.nbytes:,d} bytes)")
        host, port = server.address
        ctx = server.session.ctx
        print(f"repro serve listening on http://{host}:{port} "
              f"(backend={ctx.backend}, workers={ctx.n_workers})")
        try:
            http_thread.join()
        except KeyboardInterrupt:
            print("\nshutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SNAP reproduction: small-world network analysis "
        "and partitioning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="exploratory network analysis")
    p.add_argument("graph")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--paths", action="store_true",
                   help="also estimate path statistics (slower)")
    add_execution_flags(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("cluster", help="community detection")
    p.add_argument("graph")
    p.add_argument("--directed", action="store_true")
    p.add_argument("-a", "--algorithm", choices=sorted(_CLUSTER_ALGORITHMS),
                   default="pla")
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write vertex labels here")
    add_execution_flags(p)
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("partition", help="balanced k-way partitioning")
    p.add_argument("graph")
    p.add_argument("--directed", action="store_true")
    p.add_argument("-k", type=int, default=8)
    p.add_argument("-m", "--method", default="kmetis",
                   choices=list(_PARTITION_METHODS))
    p.add_argument("-o", "--output")
    add_execution_flags(p)
    p.set_defaults(fn=_cmd_partition)

    p = sub.add_parser(
        "profile",
        help="run algorithms under full tracing, write a JSON profile",
    )
    p.add_argument("graph", nargs="?", default=None,
                   help="input graph file (or use --rmat-scale)")
    p.add_argument("--rmat-scale", type=int, default=None,
                   help="generate an R-MAT graph of 2^scale vertices")
    p.add_argument("--edge-factor", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithms", default="betweenness,closeness,pbd",
                   help="comma-separated registry names "
                        f"(known: {', '.join(sorted(_PROFILE_ALGORITHMS))})")
    p.add_argument("-k", type=int, default=8,
                   help="part count for multilevel_kway")
    p.add_argument("--backend", choices=["serial", "thread", "process"],
                   default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--max-depth", type=int, default=6,
                   help="flame summary depth")
    p.add_argument("-o", "--output", default="profile.json")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "check",
        help="differential correctness check: fuzz kernels against "
             "pure-Python oracles across backends",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graphs", type=int, default=56,
                   help="corpus size (pathological set + random families)")
    p.add_argument("--budget", type=float, default=None,
                   help="soft wall-clock budget in seconds")
    p.add_argument("--backends", default="serial,thread,process",
                   help="comma-separated execution backends")
    p.add_argument("--checks", default=None,
                   help="comma-separated check names (default: all)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--fault", default=None,
                   help="inject a known fault (harness self-test); "
                        "the run is expected to FAIL")
    p.add_argument("--chaos", action="store_true",
                   help="arm the seeded chaos monkey on every backend: "
                        "injected worker faults must not change any "
                        "oracle comparison")
    p.add_argument("--artifacts", default=None,
                   help="directory for minimal reproducer files "
                        "(default: benchmarks/results/qa)")
    p.add_argument("--no-artifacts", action="store_true",
                   help="do not write reproducer files")
    p.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimizing them")
    p.add_argument("--stream", action="store_true",
                   help="run the streaming prefix-differential harness "
                        "instead: replay every batch prefix of crawler "
                        "event streams through the incremental engine "
                        "against full recomputation")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser(
        "stream",
        help="streaming ingestion: apply timestamped edge batches and "
             "maintain incremental analytics batch-by-batch",
    )
    p.add_argument("source",
                   help="an .events file, or a graph file to reveal "
                        "through a crawler")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--policy", default="bfs",
                   choices=["rc", "rw", "bfs", "mod"],
                   help="crawler policy when source is a graph file")
    p.add_argument("--batch-size", type=int, default=8,
                   help="vertex crawls per batch")
    p.add_argument("--max-batches", type=int, default=None,
                   help="truncate the crawl (partial reveal)")
    p.add_argument("--seed", type=int, default=0,
                   help="crawler rng seed")
    p.add_argument("--analytics", default="components,stats,degree",
                   help="comma-separated incremental analytics: "
                        "components, stats, degree, closeness, community")
    p.add_argument("-k", type=int, default=10,
                   help="top-k size for degree/closeness rankings")
    p.add_argument("--save-events", default=None, metavar="PATH",
                   help="write the generated crawl events for replay")
    p.add_argument("-o", "--output", default=None,
                   help="write per-batch results as JSON")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="durably checkpoint after every applied batch "
                        "and auto-resume from DIR after a crash "
                        "(exactly-once batch application)")
    add_execution_flags(p)
    p.set_defaults(fn=_cmd_stream)

    p = sub.add_parser(
        "chaos",
        help="fault-injection self-test: survive every fault kind on "
             "every backend with bit-identical results",
    )
    p.add_argument("--scale", type=int, default=8, help="rmat: log2 n")
    p.add_argument("--edge-factor", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", default="betweenness",
                   help="registry algorithm to run under fault injection")
    p.add_argument("--backends", default="thread,process",
                   help="comma-separated execution backends")
    p.add_argument("--kinds", default="raise,hang,exit,shm",
                   help="comma-separated fault kinds")
    p.add_argument("--workers", type=int, default=2)
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("generate", help="synthetic graph generators")
    p.add_argument("family", choices=["rmat", "smallworld", "random",
                                      "road", "planted"])
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=10, help="rmat: log2 n")
    p.add_argument("--edge-factor", type=float, default=8.0)
    p.add_argument("-n", type=int, default=1000)
    p.add_argument("-m", type=int, default=5000)
    p.add_argument("-k", type=int, default=6)
    p.add_argument("-p", type=float, default=0.1)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--p-in", type=float, default=0.3)
    p.add_argument("--p-out", type=float, default=0.01)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("convert", help="convert between graph formats")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", choices=sorted(_WRITERS), required=True)
    p.add_argument("--directed", action="store_true")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser(
        "serve",
        help="start the graph-service daemon: resident shared graphs "
             "behind a request-coalescing scheduler over HTTP/JSON",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8265,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--graph", action="append", metavar="NAME=PATH",
                   help="preload a graph into residency (repeatable); "
                        "bare PATH uses the path as the name")
    p.add_argument("--max-bytes", type=int, default=None,
                   help="byte budget for resident graphs (LRU eviction)")
    p.add_argument("--max-batch-delay", type=float, default=0.005,
                   metavar="SEC",
                   help="longest a request waits for coalescing partners while "
                        "every batch runner is busy (an idle one takes it at once)")
    p.add_argument("--max-batch", type=int, default=64,
                   help="max requests folded into one dispatch")
    p.add_argument("--batch-runners", type=int, default=2,
                   help="concurrent batch executor threads")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="log load/evict/ingest operations under DIR "
                        "and re-admit resident graphs after a restart "
                        "(data-plane requests get 503 RECOVERING during "
                        "replay)")
    p.add_argument("--verbose", action="store_true",
                   help="log one line per HTTP request")
    add_execution_flags(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "shard",
        help="out-of-core shard sets: partition a graph into "
             "memory-mapped shards and run kernels shard-at-a-time",
    )
    shard_sub = p.add_subparsers(dest="action", required=True)

    sp = shard_sub.add_parser("build", help="partition a graph into shards")
    sp.add_argument("graph", help="input graph file")
    sp.add_argument("-o", "--out", required=True, help="output directory")
    sp.add_argument("-k", type=int, default=None, help="shard count")
    sp.add_argument("--mem-budget", type=_parse_size, default=None,
                    metavar="BYTES",
                    help="per-worker memory budget (e.g. 512M, 2G); "
                         "sizes k via the cost model when -k is omitted")
    sp.add_argument("--method", choices=["multilevel", "block"],
                    default="multilevel")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_shard)

    sp = shard_sub.add_parser("info", help="dump manifest / shard stats")
    sp.add_argument("path", help="shard-set directory or manifest.json")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_shard)

    sp = shard_sub.add_parser("verify", help="checksum-verify a shard set")
    sp.add_argument("path")
    sp.add_argument("--deep", action="store_true",
                    help="also stitch and cross-check vertex/edge counts")
    sp.set_defaults(fn=_cmd_shard)

    sp = shard_sub.add_parser(
        "run", help="run kernels over a shard set under the BSP driver")
    sp.add_argument("path")
    sp.add_argument("--algo", default="msbfs",
                    help="comma list of msbfs,closeness,components,pla")
    sp.add_argument("--sources", default=None,
                    help="comma list of source vertices (msbfs/closeness)")
    sp.add_argument("--n-sources", type=int, default=8,
                    help="random sources when --sources is omitted")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--mem-budget", type=_parse_size, default=None,
                    metavar="BYTES", help="working-memory cap (e.g. 512M)")
    sp.add_argument("--enforce-rss", action="store_true",
                    help="fail if measured peak RSS breaks the budget")
    sp.add_argument("--metrics", default=None, metavar="OUT.json",
                    help="write per-superstep metrics JSON here")
    sp.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                    help="durably checkpoint coordinator state every K "
                         "supersteps (0 = off)")
    sp.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                    help="checkpoint directory (default: "
                         "<path>/.checkpoints)")
    sp.add_argument("--resume", action="store_true",
                    help="resume a killed run from its last durable "
                         "checkpoint (bit-identical results)")
    add_execution_flags(sp)
    sp.set_defaults(fn=_cmd_shard)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SnapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout (``repro stream ... | head``): stop
        # without a traceback, and point stdout at devnull so that the
        # interpreter's final flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
