"""Metric registry and the arithmetic that turns rounds into metrics.

``BENCHMARK.json`` lists exactly the names registered here (a harness
test keeps the two in step).  End-to-end metrics are gated by their
bound; per-layer metrics are recorded, never gated.

How the layers are expected to interact — written down before anything
was measured: all in-core and sharded ops are serial in one process, so
a faster layer saves at most its own self-time share of the class it
sits in and nothing on workloads whose classes never call it; the serve
daemon is the one place with queueing, where ``burst2x32`` waits on the
single batch runner, so kernel or JSON savings compound under burst but
only add under solo; work moved from ops into load/build/import shows as
a ``setup_s`` rise, and buffers kept alive to dodge first-touch faults
show as a ``peak_rss_mb`` rise.
"""

from __future__ import annotations

from statistics import median

from stats import quantile
from workloads import WORKLOADS

#: name -> (unit, better, bound): what a user of the system sees.
#: The acceptance driver refuses a benchmark whose ten-seed spread, or
#: whose shift between two sets of runs of the same code, exceeds the
#: bound.  On this box two consecutive sets moved the time medians by up
#: to 23 % (README, "Bounds"), so those carry the contract's maximum and
#: ISSUE 12's 10 / 8 / 8 % is met by ``peak_rss_mb`` only.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "mix_p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

T, C, S, H = (w.name for w in WORKLOADS.values())

#: name -> (unit, better, owning workload or "*").  The driver wants
#: every name, as a number, from every traced run, so a metric another
#: workload owns reads 0 there; reports show only the owned ones.
PER_LAYER = {
    "cold.import_s": ("s", "lower", "*"),
    "cold.first_op_ms": ("ms", "lower", "*"),
    "trace.overhead_frac": ("frac", "lower", "*"),
    # traverse_rmat13 ---------------------------------------------------
    "graph.read_edgelist_s": ("s", "lower", T),
    "graph.build_csr_s": ("s", "lower", T),
    "parallel.pool_spawn_s": ("s", "lower", T),
    "parallel.shm_export_ms": ("ms", "lower", T),
    "parallel.shm_bytes": ("bytes", "lower", T),
    "kernels.msbfs64_direct_ms": ("ms", "lower", T),
    "centrality.closeness64_direct_ms": ("ms", "lower", T),
    "centrality.brandes32_direct_ms": ("ms", "lower", T),
    "obs.facade_overhead_ms": ("ms", "lower", T),
    "parallel.proc2_speedup": ("x", "higher", T),
    "kernels.msbfs64_mteps": ("MTEPS", "higher", T),
    # cluster_rmat12 ----------------------------------------------------
    "community.pla_ml_direct_ms": ("ms", "lower", C),
    "partitioning.kway8_direct_ms": ("ms", "lower", C),
    "metrics.triangle_counts_ms": ("ms", "lower", C),
    "graph.contract_ms": ("ms", "lower", C),
    "community.modularity_ms": ("ms", "lower", C),
    "kernels.segment_sums_ms": ("ms", "lower", C),
    "community.pla_modularity": ("q", "higher", C),
    "community.pla_n_communities": ("count", "lower", C),
    "partitioning.kway8_edge_cut": ("count", "lower", C),
    "partitioning.kway8_imbalance": ("x", "lower", C),
    # serve_rmat13 ------------------------------------------------------
    "serve.daemon_start_s": ("s", "lower", S),
    "serve.load_s": ("s", "lower", S),
    "serve.roundtrip_p50_ms": ("ms", "lower", S),
    "serve.roundtrip_p90_ms": ("ms", "lower", S),
    "serve.session_submit_ms": ("ms", "lower", S),
    "centrality.closeness4_direct_ms": ("ms", "lower", S),
    "serve.http_json_ms": ("ms", "lower", S),
    "serve.coalescer_ms": ("ms", "lower", S),
    "serve.json_codec_ms": ("ms", "lower", S),
    "serve.response_bytes": ("bytes", "lower", S),
    "serve.burst_qps": ("1/s", "higher", S),
    "serve.batches_per_burst": ("count", "lower", S),
    "serve.coalescing_hit_rate": ("frac", "higher", S),
    "serve.mean_queue_wait_ms": ("ms", "lower", S),
    "dynamic.apply_batch256_ms": ("ms", "lower", S),
    "dynamic.snapshot_ms": ("ms", "lower", S),
    "dynamic.ingest_roundtrip_ms": ("ms", "lower", S),
    "serve.registry_replace_ms": ("ms", "lower", S),
    "serve.failed_requests": ("count", "lower", S),
    # shard_rmat14_k4 ---------------------------------------------------
    "sharded.build_s": ("s", "lower", H),
    "sharded.open_s": ("s", "lower", H),
    "sharded.bytes_on_disk": ("bytes", "lower", H),
    "sharded.edge_cut": ("count", "lower", H),
    "sharded.msbfs_supersteps": ("count", "lower", H),
    "sharded.msbfs_superstep_s_sum": ("s", "lower", H),
    "sharded.msbfs_coordinator_ms": ("ms", "lower", H),
    "sharded.boundary_bytes_out": ("bytes", "lower", H),
    "sharded.boundary_bytes_in": ("bytes", "lower", H),
    "kernels.msbfs16_incore_ms": ("ms", "lower", H),
    "sharded.vs_incore_ratio_msbfs": ("x", "lower", H),
    "durable.ckpt1_overhead_frac": ("frac", "lower", H),
    "durable.ckpt_bytes": ("bytes", "lower", H),
    "durable.save_state_ms": ("ms", "lower", H),
    "sharded.rss_over_incore_bytes": ("x", "lower", H),
}
for _wl in WORKLOADS.values():
    for _cls in _wl.classes:
        PER_LAYER[f"op.{_cls}.p50_ms"] = ("ms", "lower", _wl.name)
        PER_LAYER[f"op.{_cls}.p90_ms"] = ("ms", "lower", _wl.name)


def pooled(rounds: list[dict], key: str = "samples") -> dict:
    """Class -> samples of every round, in round order."""
    out: dict = {}
    for rd in rounds:
        for cls, xs in rd.get(key, {}).items():
            out.setdefault(cls, []).extend(xs)
    return out


def mix_p50_ms(samples: dict) -> float:
    """Sum over the op classes of each class's pooled median: the
    median cost of one pass through the workload's fixed op mix."""
    return 1000.0 * sum(quantile(xs, 0.5) for xs in samples.values())


def end_to_end(rounds: list[dict]) -> dict:
    """The three gated metrics of one run; every one is a median over
    samples from all the run's fresh processes."""
    return {
        "setup_s": median(rd["setup_s"] for rd in rounds),
        "mix_p50_ms": mix_p50_ms(pooled(rounds)),
        "peak_rss_mb": median(rd["rss_kb"] for rd in rounds) / 1024.0,
    }


def span_seconds(rounds: list[dict], name: str) -> float:
    """Median over rounds of the total duration of spans called ``name``."""
    totals = []
    for rd in rounds:
        hits = [s for s in rd["spans"] if s["name"] == name and s["end"]]
        if hits:
            totals.append(sum(s["end"] - s["start"] for s in hits))
    return median(totals)


def per_layer(workload: str, rounds: list[dict]) -> dict:
    """Every registered per-layer metric for one traced run."""
    plain, traced = pooled(rounds), pooled(rounds, "traced_samples")
    p50 = {cls: 1000.0 * quantile(xs, 0.5) for cls, xs in plain.items()}
    probe = {
        k: median(rd["probes"][k] for rd in rounds)
        for k in rounds[0]["probes"] if not k.endswith("_samples")
    }
    count = {
        k: median(rd["counts"][k] for rd in rounds) for k in rounds[0]["counts"]
    }
    first = next(iter(WORKLOADS[workload].classes))
    untraced_mix = mix_p50_ms(plain)
    out = {
        "cold.import_s": probe["cold.import"] if workload == S
        else span_seconds(rounds, "cold.import"),
        "cold.first_op_ms": 1000.0 * median(rd["warm"][first] for rd in rounds),
        "trace.overhead_frac":
            (mix_p50_ms(traced) - untraced_mix) / untraced_mix,
    }
    for cls, xs in traced.items():
        out[f"op.{cls}.p50_ms"] = 1000.0 * quantile(xs, 0.5)
        out[f"op.{cls}.p90_ms"] = 1000.0 * quantile(xs, 0.9)
    rss_bytes = 1024.0 * median(rd["rss_kb"] for rd in rounds)

    if workload == T:
        direct = {
            cls: 1000.0 * probe[name] for cls, name in (
                ("msbfs64", "kernels.msbfs64_direct"),
                ("closeness64", "centrality.closeness64_direct"),
                ("brandes32", "centrality.brandes32_direct"),
            )
        }
        out.update({
            "graph.build_csr_s": probe["graph.build_csr"],
            "graph.read_edgelist_s":
                span_seconds(rounds, "graph.read_auto") - probe["graph.build_csr"],
            "parallel.pool_spawn_s": probe["parallel.pool_spawn"],
            "parallel.shm_export_ms": 1000.0 * probe["parallel.shm_export"],
            "parallel.shm_bytes": probe["parallel.shm_bytes"],
            "kernels.msbfs64_direct_ms": direct["msbfs64"],
            "centrality.closeness64_direct_ms": direct["closeness64"],
            "centrality.brandes32_direct_ms": direct["brandes32"],
            "obs.facade_overhead_ms":
                sum(p50[c] for c in direct) - sum(direct.values()),
            "parallel.proc2_speedup":
                p50["closeness64"] / p50["closeness64_proc2"],
            # computed, not measured: lanes x arcs per direct call
            "kernels.msbfs64_mteps":
                64 * probe["graph.n_arcs"] / (1e3 * direct["msbfs64"]),
        })
    elif workload == C:
        out.update({
            "community.pla_ml_direct_ms": 1000.0 * probe["community.pla_ml_direct"],
            "partitioning.kway8_direct_ms":
                1000.0 * probe["partitioning.kway8_direct"],
            "metrics.triangle_counts_ms": 1000.0 * probe["metrics.triangle_counts"],
            "graph.contract_ms": 1000.0 * probe["graph.contract"],
            "community.modularity_ms": 1000.0 * probe["community.modularity"],
            "kernels.segment_sums_ms": 1000.0 * probe["kernels.segment_sums"],
            **count,
        })
    elif workload == S:
        trips = [
            1000.0 * x for rd in rounds
            for x in rd["probes"]["serve.roundtrip_samples"]
        ]
        trip = quantile(trips, 0.5)
        session = 1000.0 * probe["serve.session_submit"]
        direct = 1000.0 * probe["centrality.closeness4_direct"]
        post = p50["ingest2x256"] / 2.0
        apply_ms = 1000.0 * probe["dynamic.apply_batch256"]
        snap_ms = 1000.0 * probe["dynamic.snapshot"]
        out.update({
            "serve.daemon_start_s": span_seconds(rounds, "serve.daemon_start"),
            "serve.load_s": span_seconds(rounds, "serve.load"),
            "serve.roundtrip_p50_ms": trip,
            "serve.roundtrip_p90_ms": quantile(trips, 0.9),
            "serve.session_submit_ms": session,
            "centrality.closeness4_direct_ms": direct,
            "serve.http_json_ms": trip - session,
            "serve.coalescer_ms": session - direct,
            "serve.json_codec_ms": 1000.0 * probe["serve.json_codec"],
            "serve.response_bytes": probe["serve.response_bytes"],
            "serve.burst_qps": 64.0 / (p50["burst2x32"] / 1000.0),
            "dynamic.apply_batch256_ms": apply_ms,
            "dynamic.snapshot_ms": snap_ms,
            "dynamic.ingest_roundtrip_ms": post,
            "serve.registry_replace_ms": post - apply_ms - snap_ms,
            "serve.failed_requests": sum(rd["failed"] for rd in rounds),
            **{k: probe[k] for k in (
                "serve.batches_per_burst", "serve.coalescing_hit_rate",
                "serve.mean_queue_wait_ms",
            )},
        })
    elif workload == H:
        plain_ms, ckpt_ms = p50["sh_msbfs16"], p50["sh_msbfs16_ckpt1"]
        incore = 1000.0 * probe["kernels.msbfs16_incore"]
        out.update({
            "sharded.build_s": span_seconds(rounds, "sharded.build"),
            "sharded.open_s": span_seconds(rounds, "sharded.open"),
            "sharded.bytes_on_disk": count["sharded.bytes_on_disk"],
            "sharded.edge_cut": count["sharded.edge_cut"],
            "sharded.msbfs_supersteps": probe["sharded.msbfs_supersteps"],
            "sharded.msbfs_superstep_s_sum":
                probe["sharded.msbfs_superstep_s_sum"],
            "sharded.msbfs_coordinator_ms": 1000.0 * (
                probe["sharded.msbfs_wall"]
                - probe["sharded.msbfs_superstep_s_sum"]
            ),
            "sharded.boundary_bytes_out": probe["sharded.boundary_bytes_out"],
            "sharded.boundary_bytes_in": probe["sharded.boundary_bytes_in"],
            "kernels.msbfs16_incore_ms": incore,
            "sharded.vs_incore_ratio_msbfs": plain_ms / incore,
            "durable.ckpt1_overhead_frac": (ckpt_ms - plain_ms) / plain_ms,
            "durable.ckpt_bytes": probe["durable.ckpt_bytes"],
            "durable.save_state_ms": 1000.0 * probe["durable.save_state"],
            "sharded.rss_over_incore_bytes":
                rss_bytes / count["sharded.in_core_bytes"],
        })
    own = {k for k, (_, _, w) in PER_LAYER.items() if w in ("*", workload)}
    if set(out) != own:
        raise AssertionError(
            f"{workload}: emitted {sorted(set(out) ^ own)} out of step "
            "with the registry"
        )
    return {k: float(out.get(k, 0.0)) for k in PER_LAYER}
