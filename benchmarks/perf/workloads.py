"""The ledger's four workloads.

Each workload stresses different layers of ``src/repro`` (see ``why``)
so that an optimisation always has one workload that exercises its
mechanism and one that bypasses it.  A workload knows how to

* ``generate`` its seeded inputs (runner side, untimed);
* ``setup`` — everything a user pays before the first answer, starting
  with ``import repro`` (this module imports neither numpy nor repro at
  import time, so a fresh child really pays the import inside setup);
* expose its op classes as zero-argument callables (``ops``);
* ``verify`` the outputs against ``repro.qa.oracles`` / the in-core
  library path, outside every timed region;
* run its layer ``probes`` in a traced round.

``reps_per_round`` (the values of ``classes``) are sized so that one
untraced run measures about ``RUN_SECONDS`` and the driver's 92 runs fit
its 3420 s cap; every class still pools >= 18 samples over 6 rounds.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

from base import RUN_SECONDS, Workload, probe, read_edges, ref_graph, vm_hwm_kb
from serve import Serve


def _echo(x):
    """Module-level (picklable) no-op used to spawn a process pool."""
    return x


# ---------------------------------------------------------------------
# traverse_rmat13
# ---------------------------------------------------------------------
class Traverse(Workload):
    name = "traverse_rmat13"
    why = (
        "R-MAT scale 13 msbfs/closeness/Brandes via repro.api, serial and "
        "process-backend: kernels/bfs+centrality+parallel/shm do all the "
        "work, community/serve/sharded none; reps/round 4/4/4/4"
    )
    classes = {
        "msbfs64": 4, "closeness64": 4, "brandes32": 4,
        "closeness64_proc2": 4,
    }
    scale = 13

    def generate(self, seed, tmp):
        from inputs import pick_sources, rmat_edges, write_edgelist

        n, u, v = rmat_edges(self.scale, seed)
        path = tmp / "graph.edgelist"
        write_edgelist(path, u, v)
        return {
            "graph": str(path), "n": n,
            "sources": pick_sources(self.scale, 64, seed),
        }

    def setup(self, spec, tr):
        with tr.span("cold.import"):
            import numpy  # noqa: F401
            import repro.api as api
            from repro.cli_options import ExecutionOptions
            from repro.graph.io import read_auto
        with tr.span("graph.read_auto"):
            g = read_auto(spec["graph"])
        with tr.span("parallel.session"):
            session = api.Session(
                options=ExecutionOptions(backend="process", workers=2)
            )
        with tr.span("parallel.pool_fork"):
            # both workers fork now, while this process is still small
            session.ctx.map(_echo, [0, 1])
        with tr.span("parallel.first_dispatch"):
            # exports the CSR to shared memory; workers attach
            session.run("closeness", g, sources=spec["sources"][:2])
        return SimpleNamespace(spec=spec, g=g, session=session, api=api)

    def ops(self, st):
        api, g, src = st.api, st.g, st.spec["sources"]
        return {
            "msbfs64": lambda: api.run("msbfs", g, src).value,
            "closeness64": lambda: api.run("closeness", g, sources=src).value,
            "brandes32": lambda: api.run("brandes", g, sources=src[:32]).value,
            "closeness64_proc2":
                lambda: st.session.run("closeness", g, sources=src).value,
        }

    def rss_kb(self, st):
        import multiprocessing

        workers = multiprocessing.active_children()
        return vm_hwm_kb() + sum(vm_hwm_kb(w.pid) for w in workers)

    def verify(self, st, results):
        import numpy as np
        from repro.centrality import brandes
        from repro.qa import oracles

        errors = []
        src, n = st.spec["sources"], st.spec["n"]
        ref = ref_graph(st.spec["graph"], n)
        dist = results["msbfs64"].distances
        clo = results["closeness64"]
        oracle_bc = np.zeros(n)
        for lane, s in enumerate(src[:4]):
            levels = oracles.bfs_levels(ref, s)
            if not np.array_equal(dist[lane], np.asarray(levels)):
                errors.append(f"msbfs64: lane {lane} differs from oracle BFS")
            reach = [d for d in levels if d >= 0]
            want = (len(reach) - 1) ** 2 / (sum(reach) * (n - 1))
            if abs(clo[s] - want) > 1e-12 * max(1.0, want):
                errors.append(f"closeness64: source {s} {clo[s]} != {want}")
            oracle_bc += _dependencies(ref, s, levels)
        off = np.ones(n, dtype=bool)
        off[src] = False
        if clo[off].any():
            errors.append("closeness64: non-zero score off the sources")
        if not np.array_equal(results["closeness64_proc2"], clo):
            errors.append("closeness64_proc2: not bit-identical to serial")
        # undirected Brandes halves the two-direction accumulation
        lib4 = brandes(st.g, sources=src[:4]).vertex
        if not np.allclose(lib4, oracle_bc / 2, rtol=1e-9, atol=1e-9):
            errors.append("brandes: 4-source scores differ from the oracle")
        chunks = sum(
            brandes(st.g, sources=src[i:i + 4]).vertex for i in range(0, 32, 4)
        )
        if not np.allclose(results["brandes32"].vertex, chunks, rtol=1e-9):
            errors.append("brandes32: not the sum of its 4-source chunks")
        return errors

    def probes(self, st, tr, results):
        from repro.centrality import brandes, closeness_centrality
        from repro.graph import builder
        from repro.kernels import msbfs
        from repro.parallel import ParallelContext, shm

        g, src, out = st.g, st.spec["sources"], {}
        u, v = read_edges(st.spec["graph"])
        n = st.spec["n"]

        probe(tr, out, "kernels.msbfs64_direct", lambda: msbfs(g, src))
        probe(tr, out, "centrality.closeness64_direct",
              lambda: closeness_centrality(g, sources=src))
        probe(tr, out, "centrality.brandes32_direct",
              lambda: brandes(g, sources=src[:32]))
        probe(tr, out, "graph.build_csr",
              lambda: builder.from_edge_array(n, u, v, directed=False))

        def spawn():
            with ParallelContext(backend="process", n_workers=2) as ctx:
                t0 = time.perf_counter()
                ctx.map(_echo, [0, 1])
                return time.perf_counter() - t0

        with tr.span("parallel.pool_spawn"):
            out["parallel.pool_spawn"] = median(spawn() for _ in range(3))

        def export():
            t0 = time.perf_counter()
            shared = shm.share_graph(g)
            dt = time.perf_counter() - t0
            out["parallel.shm_bytes"] = shared.nbytes
            shared.close()
            return dt

        with tr.span("parallel.shm_export"):
            out["parallel.shm_export"] = median(export() for _ in range(3))
        out["graph.n_arcs"] = int(g.n_arcs)
        return out

    def teardown(self, st):
        st.session.close()


def _dependencies(ref, s: int, levels: list[int]):
    """Textbook single-source Brandes dependencies on the oracle graph
    (``qa.oracles.brandes_betweenness`` only does all sources)."""
    import numpy as np

    order = sorted((d, x) for x, d in enumerate(levels) if d >= 0)
    sigma = [0.0] * ref.n
    sigma[s] = 1.0
    for d, x in order:
        for y in ref.adj[x]:
            if levels[y] == d + 1:
                sigma[y] += sigma[x]
    delta = [0.0] * ref.n
    for d, x in reversed(order):
        for y in ref.adj[x]:
            if levels[y] == d + 1:
                delta[x] += sigma[x] / sigma[y] * (1.0 + delta[y])
    delta[s] = 0.0
    return np.asarray(delta)


# ---------------------------------------------------------------------
# cluster_rmat12
# ---------------------------------------------------------------------
class Cluster(Workload):
    name = "cluster_rmat12"
    why = (
        "R-MAT scale 12 multilevel pLA, 8-way partition, triangle counts: "
        "community+partitioning+kernels/segments+builder.contract dominate; "
        "the BFS engine is bypassed; reps/round 3/3/3"
    )
    classes = {"pla_ml": 3, "kway8": 3, "lcc": 3}
    scale = 12
    max_imbalance = 1.05  # multilevel_kway's default contract

    def generate(self, seed, tmp):
        from inputs import rmat_edges, write_edgelist

        n, u, v = rmat_edges(self.scale, seed)
        path = tmp / "graph.edgelist"
        write_edgelist(path, u, v)
        return {"graph": str(path), "n": n}

    def setup(self, spec, tr):
        with tr.span("cold.import"):
            import numpy  # noqa: F401
            import repro.api as api
            from repro.graph.io import read_auto
            from repro.metrics import triangle_counts
        with tr.span("graph.read_auto"):
            g = read_auto(spec["graph"])
        return SimpleNamespace(spec=spec, g=g, api=api, tri=triangle_counts)

    def ops(self, st):
        api, g = st.api, st.g
        return {
            "pla_ml": lambda: api.run("pla", g, multilevel=True).value,
            "kway8": lambda: api.run("multilevel_kway", g, 8).value,
            "lcc": lambda: st.tri(g),
        }

    def verify(self, st, results):
        import numpy as np
        from repro.partitioning import edge_cut, partition_balance
        from repro.qa import oracles

        errors = []
        n = st.spec["n"]
        ref = ref_graph(st.spec["graph"], n)
        pla = results["pla_ml"]
        labels = np.asarray(pla.labels)
        if labels.shape != (n,) or labels.dtype.kind not in "iu" or labels.min() < 0:
            errors.append("pla_ml: labels are not a partition of the vertices")
        else:
            q = oracles.modularity(ref, labels.tolist())
            if abs(q - pla.modularity) > 1e-9:
                errors.append(f"pla_ml: modularity {pla.modularity} != oracle {q}")
        parts = np.asarray(results["kway8"])
        if parts.shape != (n,) or parts.min() < 0 or parts.max() >= 8:
            errors.append("kway8: labels are not an 8-way partition")
        else:
            cut = oracles.edge_cut(ref, parts.tolist())
            if cut != edge_cut(st.g, parts):
                errors.append(f"kway8: edge cut {edge_cut(st.g, parts)} != oracle {cut}")
            balance = partition_balance(st.g, parts, 8)
            if balance > self.max_imbalance + 1e-9:
                errors.append(f"kway8: imbalance {balance} > {self.max_imbalance}")
        cc = oracles.local_clustering(ref)
        deg = st.g.degrees()
        want = np.rint(np.asarray(cc) * deg * (deg - 1) / 2.0).astype(np.int64)
        if not np.array_equal(results["lcc"], want):
            errors.append("lcc: triangle counts differ from the oracle")
        return errors

    def counts(self, st, results):
        import numpy as np
        from repro.partitioning import edge_cut, partition_balance

        pla, parts = results["pla_ml"], results["kway8"]
        return {
            "community.pla_modularity": float(pla.modularity),
            "community.pla_n_communities": int(np.unique(pla.labels).shape[0]),
            "partitioning.kway8_edge_cut": float(edge_cut(st.g, parts)),
            "partitioning.kway8_imbalance":
                float(partition_balance(st.g, parts, 8)),
        }

    def probes(self, st, tr, results):
        import numpy as np
        from repro.community import modularity, pla
        from repro.graph.builder import contract
        from repro.kernels import segment_sums
        from repro.partitioning import multilevel_kway

        g, out = st.g, {}
        labels = np.asarray(results["pla_ml"].labels)
        ones = np.ones(g.n_arcs, dtype=np.float64)

        probe(tr, out, "community.pla_ml_direct",
              lambda: pla(g, multilevel=True))
        probe(tr, out, "partitioning.kway8_direct",
              lambda: multilevel_kway(g, 8))
        probe(tr, out, "metrics.triangle_counts", lambda: st.tri(g))
        probe(tr, out, "graph.contract", lambda: contract(g, labels), reps=5)
        probe(tr, out, "community.modularity",
              lambda: modularity(g, labels), reps=5, inner=10)
        probe(tr, out, "kernels.segment_sums",
              lambda: segment_sums(ones, g.offsets), reps=5, inner=50)
        return out


# ---------------------------------------------------------------------
# shard_rmat14_k4
# ---------------------------------------------------------------------
class Shard(Workload):
    name = "shard_rmat14_k4"
    why = (
        "R-MAT scale 14 in 4 memory-mapped block shards: sharded/{shards,"
        "bsp,algorithms} and the page-in path dominate; the checkpointed "
        "class puts durable writes beside the same compute; reps 3/3/3/3"
    )
    classes = {
        "sh_msbfs16": 3, "sh_closeness16": 3, "sh_components": 3,
        "sh_msbfs16_ckpt1": 3,
    }
    scale = 14

    def generate(self, seed, tmp):
        from inputs import pick_sources, rmat_edges, write_npz
        from repro.graph import builder

        n, u, v = rmat_edges(self.scale, seed)
        graph = builder.from_edge_array(n, u, v, directed=False)
        path = tmp / "graph.npz"
        write_npz(path, graph)
        return {
            "graph": str(path), "n": n,
            "sources": pick_sources(self.scale, 16, seed),
        }

    def setup(self, spec, tr):
        with tr.span("cold.import"):
            import numpy  # noqa: F401
            import repro.sharded as sharded
            from repro.graph.io import read_auto
        with tr.span("graph.read_auto"):
            g = read_auto(spec["graph"])
        shards = Path(spec["scratch"]) / "shards"
        with tr.span("sharded.build"):
            sharded.build_shard_set(g, shards, k=4, method="block")
        del g
        with tr.span("sharded.open"):
            ss = sharded.open_shard_set(shards)
        return SimpleNamespace(
            spec=spec, ss=ss, sharded=sharded, ckpt_dirs=[],
            scratch=Path(spec["scratch"]),
        )

    def ops(self, st):
        sh, ss, src = st.sharded, st.ss, st.spec["sources"]

        def checkpointed():
            cdir = st.scratch / f"ckpt{len(st.ckpt_dirs)}"
            st.ckpt_dirs.append(cdir)
            drv = sh.BSPDriver(
                ss, checkpointer=sh.BSPCheckpointer(cdir, every=1)
            )
            return sh.sharded_msbfs(ss, src, driver=drv)

        return {
            "sh_msbfs16": lambda: sh.sharded_msbfs(ss, src),
            "sh_closeness16": lambda: sh.sharded_closeness(ss, sources=src),
            "sh_components": lambda: sh.sharded_connected_components(ss),
            "sh_msbfs16_ckpt1": checkpointed,
        }

    def verify(self, st, results):
        import numpy as np
        from repro.centrality import closeness_centrality
        from repro.graph.io import read_auto
        from repro.kernels import connected_components, msbfs

        errors = []
        g = read_auto(st.spec["graph"])
        src = st.spec["sources"]
        want = msbfs(g, src).distances
        for cls in ("sh_msbfs16", "sh_msbfs16_ckpt1"):
            if not np.array_equal(results[cls].distances, want):
                errors.append(f"{cls}: distances differ from in-core msbfs")
        if not np.array_equal(
            results["sh_closeness16"], closeness_centrality(g, sources=src)
        ):
            errors.append("sh_closeness16: differs from in-core closeness")
        if not np.array_equal(results["sh_components"], connected_components(g)):
            errors.append("sh_components: labels differ from in-core")
        left = [p.name for d in st.ckpt_dirs if d.is_dir() for p in d.iterdir()]
        if left:
            errors.append(f"sh_msbfs16_ckpt1: checkpoints left behind: {left}")
        return errors

    def counts(self, st, results):
        return {
            "sharded.bytes_on_disk": int(st.ss.total_bytes),
            "sharded.edge_cut": int(st.ss.edge_cut),
            "sharded.in_core_bytes": int(st.ss.in_core_bytes),
        }

    def probes(self, st, tr, results):
        from repro.durable import save_state
        from repro.graph.io import read_auto
        from repro.kernels import msbfs

        sh, ss, src, out = st.sharded, st.ss, st.spec["sources"], {}
        ledger = []
        for _ in range(3):
            drv = sh.BSPDriver(ss)
            with tr.span("sharded.msbfs_ledger"):
                t0 = time.perf_counter()
                sh.sharded_msbfs(ss, src, driver=drv)
                wall = time.perf_counter() - t0
            m = drv.metrics()
            ledger.append((wall, m))
        wall, m = sorted(ledger, key=lambda x: x[0])[1]
        out["sharded.msbfs_wall"] = wall
        out["sharded.msbfs_supersteps"] = m["n_supersteps"]
        out["sharded.msbfs_superstep_s_sum"] = m["seconds_total"]
        out["sharded.boundary_bytes_out"] = m["boundary_bytes_out"]
        out["sharded.boundary_bytes_in"] = m["boundary_bytes_in"]
        g = read_auto(st.spec["graph"])
        probe(tr, out, "kernels.msbfs16_incore", lambda: msbfs(g, src))
        # the coordinator state sharded_msbfs persists every superstep
        dist = results["sh_msbfs16"].distances
        doc = {"tag": "msbfs", "state": {"dist": dist, "level": 1}}
        path = st.scratch / "probe.ckpt"
        probe(tr, out, "durable.save_state",
              lambda: save_state(path, doc, kind="bench-probe"), reps=5)
        out["durable.ckpt_bytes"] = path.stat().st_size
        return out


WORKLOADS = {w.name: w for w in (Traverse(), Cluster(), Serve(), Shard())}


def scaled_reps(workload: Workload, seconds: float, quick: bool) -> dict:
    """reps_per_round for a run asked to measure ``seconds``."""
    if quick:
        return {cls: 2 for cls in workload.classes}
    scale = seconds / RUN_SECONDS
    return {
        cls: max(1, round(reps * scale))
        for cls, reps in workload.classes.items()
    }
