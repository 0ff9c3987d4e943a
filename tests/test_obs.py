"""Tests for the observability layer: tracer, canonical API, run()."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import repro
from repro.centrality.betweenness import brandes
from repro.centrality.closeness import closeness_centrality
from repro.community.pbd import pbd
from repro.community.pla import pla
from repro.generators import rmat
from repro.obs import (
    ALGORITHMS,
    NULL_TRACER,
    RunResult,
    Span,
    Tracer,
    current_tracer,
    flame_summary,
    get_algorithm,
    run,
    use_tracer,
)
from repro.parallel.runtime import ParallelContext
from tests.test_memory_policy import fresh

#: ``repro.__all__`` as the eagerly importing package listed it.
TOP_LEVEL_ALL = [
    "api", "graph", "parallel", "kernels", "centrality", "metrics",
    "community", "partitioning", "generators", "datasets", "dynamic",
    "obs", "Graph", "from_edge_list", "from_edge_array", "RunResult",
    "Tracer", "Span", "NULL_TRACER", "current_tracer", "use_tracer",
    "ALGORITHMS", "algorithm_names", "get_algorithm", "ParallelContext",
    "FaultPolicy", "ChaosPlan", "ChaosMonkey", "Fault", "bfs", "msbfs",
    "st_connectivity", "connected_components", "biconnected_components",
    "articulation_points", "bridges", "dijkstra", "delta_stepping",
    "boruvka_msf", "kruskal_msf", "prim_mst", "minimum_spanning_forest",
    "degree_centrality", "closeness_centrality", "betweenness_centrality",
    "edge_betweenness_centrality", "brandes", "sampled_betweenness",
    "approximate_vertex_betweenness", "pbd", "girvan_newman", "pma", "pla",
    "cnm", "local_resweep", "spectral_modularity", "StreamEngine",
    "stream_replay", "multilevel_bisection",
    "multilevel_recursive_bisection", "multilevel_kway",
    "spectral_bisection", "spectral_kway", "SnapError", "GraphFormatError",
    "GraphStructureError", "ConvergenceError", "PartitioningError",
    "ClusteringError", "ExecutionError", "TaskTimeout", "RetryExhausted",
    "__version__",
]


@pytest.fixture(scope="module")
def small_rmat():
    return rmat(
        scale=7, edge_factor=6, rng=np.random.default_rng(11)
    ).as_undirected()


# ---------------------------------------------------------------------------
# Tracer / Span basics
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_and_attrs(self):
        tr = Tracer()
        with tr.span("outer", a=1) as outer:
            with tr.span("inner") as inner:
                inner.set(b=2).add("count").add("count")
            outer.set(done=True)
        root = tr.finish()
        assert root.structure() == ("trace", (("outer", (("inner", ()),)),))
        (outer,) = root.children
        assert outer.attrs == {"a": 1, "done": True}
        (inner,) = outer.children
        assert inner.attrs == {"b": 2, "count": 2}
        assert root.t1 is not None and root.duration >= 0.0

    def test_end_heals_unclosed_children(self):
        tr = Tracer()
        outer = tr.begin("outer")
        tr.begin("left_open")
        tr.end(outer, flagged=1)  # closes left_open too
        root = tr.finish()
        assert root.structure() == ("trace", (("outer", (("left_open", ()),)),))
        assert all(sp.t1 is not None for _, sp in root.walk())
        assert outer.attrs["flagged"] == 1

    def test_to_dict_roundtrip(self):
        tr = Tracer()
        with tr.span("a", n=3):
            with tr.span("b"):
                pass
        root = tr.finish()
        clone = Span.from_dict(root.to_dict())
        assert clone.structure() == root.structure()
        assert clone.find("a")[0].attrs == {"n": 3}
        assert clone.duration == pytest.approx(root.duration, abs=1e-6)
        json.dumps(root.to_dict())  # JSON-serializable

    def test_find_and_walk(self):
        tr = Tracer()
        with tr.span("x"):
            with tr.span("leaf"):
                pass
            with tr.span("leaf"):
                pass
        root = tr.finish()
        assert len(root.find("leaf")) == 2
        depths = {sp.name: d for d, sp in root.walk()}
        assert depths == {"trace": 0, "x": 1, "leaf": 2}
        assert root.n_spans == 4

    def test_max_spans_budget(self):
        tr = Tracer(max_spans=5)
        for _ in range(20):
            with tr.span("s"):
                pass
        root = tr.finish()
        assert root.n_spans == 6  # root + 5 recorded
        assert tr.n_dropped == 15
        assert root.attrs["n_dropped_spans"] == 15

    def test_graft(self):
        sub = Tracer()
        with sub.span("task"):
            pass
        data = sub.finish().children[0].to_dict()
        tr = Tracer()
        with tr.span("map"):
            tr.graft(data, index=0)
        root = tr.finish()
        assert root.structure() == ("trace", (("map", (("task", ()),)),))
        assert root.find("task")[0].attrs["index"] == 0


class TestNullTracer:
    def test_falsy_noop(self):
        assert not NULL_TRACER
        assert bool(Tracer())
        sp = NULL_TRACER.begin("x")
        assert not sp
        assert sp.set(a=1) is sp and sp.add("k") is sp
        with NULL_TRACER.span("y") as sp2:
            assert not sp2
        assert NULL_TRACER.graft({"name": "t"}) is None
        assert NULL_TRACER.finish() is None

    def test_ambient_default_and_restore(self):
        assert current_tracer() is NULL_TRACER
        tr = Tracer()
        with use_tracer(tr):
            assert current_tracer() is tr
            with use_tracer(None):
                assert current_tracer() is NULL_TRACER
            assert current_tracer() is tr
        assert current_tracer() is NULL_TRACER


# ---------------------------------------------------------------------------
# Canonical API: trace=/seed=
# ---------------------------------------------------------------------------


class TestAlgorithmSurface:
    def test_trace_records_algorithm_span(self, small_rmat):
        tr = Tracer()
        closeness_centrality(small_rmat, trace=tr)
        root = tr.finish()
        assert [c.name for c in root.children] == ["closeness"]
        assert root.children[0].attrs["n_vertices"] == small_rmat.n_vertices

    def test_ambient_tracer_picked_up(self, small_rmat):
        tr = Tracer()
        with use_tracer(tr):
            closeness_centrality(small_rmat)
        assert tr.finish().find("closeness")

    def test_nested_algorithms_nest(self, two_triangles_bridge):
        tr = Tracer()
        pbd(two_triangles_bridge, trace=tr, max_iterations=3)
        root = tr.finish()
        (pbd_span,) = root.children
        assert pbd_span.name == "pbd"
        # pBD drives Brandes rescorings: they must appear *inside* pbd.
        assert root.find("brandes")
        for sp in root.find("brandes"):
            assert sp is not pbd_span

    def test_too_many_positionals_raise(self, small_rmat):
        with pytest.raises(TypeError, match="positional operand"):
            closeness_centrality(small_rmat, None, True, "extra")

    def test_seed_matches_rng(self, two_triangles_bridge):
        a = pla(two_triangles_bridge, seed=3)
        b = pla(two_triangles_bridge, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_and_rng_conflict(self, two_triangles_bridge):
        with pytest.raises(TypeError, match="not both"):
            pla(two_triangles_bridge, seed=3, rng=np.random.default_rng(3))

    def test_seed_on_seedless_algorithm(self, small_rmat):
        with pytest.raises(TypeError, match="seed"):
            closeness_centrality(small_rmat, seed=1)

    def test_registry(self):
        assert "betweenness" in ALGORITHMS
        assert "pbd" in ALGORITHMS
        assert get_algorithm("closeness") is closeness_centrality
        with pytest.raises(KeyError, match="unknown algorithm"):
            get_algorithm("nope")
        assert repro.algorithm_names() == sorted(ALGORITHMS)

    def test_top_level_imports(self):
        from repro import closeness_centrality as cc, pbd as p  # noqa: F401

        for name in ("pbd", "closeness_centrality", "Tracer"):
            assert name in repro.__all__
        # the surface the eagerly importing package had, name for name
        assert repro.__all__ == TOP_LEVEL_ALL
        assert set(dir(repro)) >= set(repro.__all__)
        with pytest.raises(AttributeError, match="module 'repro' has no attribute 'nope'"):
            repro.nope  # noqa: B018

    def test_top_level_names_resolve_on_first_use(self):
        """In a fresh process each ``__all__`` name, read first, is the
        object its home module defines, and ``import *`` binds them all."""
        got = fresh(
            "import importlib, json\n"
            "import repro\n"
            "wrong = []\n"
            "for name in repro.__all__[:-1]:\n"
            "    got = getattr(repro, name)\n"
            "    home = importlib.import_module(repro._HOMES[name])\n"
            "    if got is not getattr(repro, name) or got is not (\n"
            "            home if home.__name__ == 'repro.' + name\n"
            "            else getattr(home, name)):\n"
            "        wrong.append(name)\n"
            "star = {}\n"
            "exec('from repro import *', star)\n"
            "star.pop('__builtins__')\n"
            "same = all(star[n] is getattr(repro, n) for n in repro.__all__)\n"
            "print(json.dumps([wrong, sorted(star), same]))"
        )
        assert got == [[], sorted(TOP_LEVEL_ALL), True]


# ---------------------------------------------------------------------------
# Span-structure parity across execution backends
# ---------------------------------------------------------------------------


BACKENDS = ("serial", "thread", "process")


def _traced_structure(fn, graph, backend, **kwargs):
    tr = Tracer()
    with ParallelContext(2, backend=backend, trace=tr) as ctx:
        fn(graph, ctx=ctx, trace=tr, **kwargs)
    return tr.finish().structure()


class TestBackendParity:
    def test_closeness_structure_identical(self, small_rmat):
        structures = {
            b: _traced_structure(closeness_centrality, small_rmat, b)
            for b in BACKENDS
        }
        assert structures["thread"] == structures["serial"]
        assert structures["process"] == structures["serial"]
        # The tree actually covers traversal levels and batches.
        names = {"map_batches", "batch", "msbfs", "level"}
        flat = json.dumps(structures["serial"])
        assert all(n in flat for n in names)

    def test_batched_betweenness_structure_identical(self, small_rmat):
        structures = {
            b: _traced_structure(brandes, small_rmat, b, sources=np.arange(24))
            for b in BACKENDS
        }
        assert structures["thread"] == structures["serial"]
        assert structures["process"] == structures["serial"]
        flat = json.dumps(structures["serial"])
        for name in ("forward_level", "backward_level"):
            assert name in flat

    def test_pbd_structure_identical(self, two_triangles_bridge):
        structures = {
            b: _traced_structure(
                pbd, two_triangles_bridge, b, max_iterations=4, seed=0
            )
            for b in BACKENDS
        }
        assert structures["thread"] == structures["serial"]
        assert structures["process"] == structures["serial"]

    def test_pool_gauges_process_shm(self, small_rmat):
        tr = Tracer()
        with ParallelContext(2, backend="process", trace=tr) as ctx:
            closeness_centrality(small_rmat, ctx=ctx, trace=tr)
            assert ctx.pool.batch_calls >= 1
            assert ctx.pool.batches_dispatched >= 2
            assert ctx.pool.shm_segments >= 1
            assert ctx.pool.shm_bytes > 0
            assert ctx.pool.busy_seconds > 0.0
            assert 0.0 < ctx.pool.utilization(2) <= 1.0

    def test_pool_gauges_serial_brandes(self, small_rmat):
        # The serial inline path must keep the gauges honest too.
        tr = Tracer()
        with ParallelContext(1, backend="serial", trace=tr) as ctx:
            brandes(small_rmat, ctx=ctx, trace=tr, sources=np.arange(8))
        assert ctx.pool.batch_calls >= 1
        assert ctx.pool.lanes_dispatched >= 8


# ---------------------------------------------------------------------------
# Disabled-tracer overhead
# ---------------------------------------------------------------------------


class TestOverhead:
    def test_noop_tracer_cheap(self, small_rmat):
        """Guard the `if tr:` fast path: untraced through the public API
        must stay within 1.5x of min-of-k (generous; the benchmark gate
        in benchmarks/test_obs_overhead.py holds the real 5% bound)."""

        def once():
            t0 = time.perf_counter()
            closeness_centrality(small_rmat, sources=np.arange(32))
            return time.perf_counter() - t0

        times = [once() for _ in range(5)]
        assert min(times) > 0
        assert current_tracer() is NULL_TRACER


# ---------------------------------------------------------------------------
# run() / RunResult
# ---------------------------------------------------------------------------


class TestRun:
    def test_run_by_name(self, small_rmat, tmp_path):
        res = run("closeness", small_rmat, backend="thread", n_workers=2)
        assert isinstance(res, RunResult)
        assert res.algorithm == "closeness"
        assert res.backend == "thread" and res.n_workers == 2
        assert res.value.shape == (small_rmat.n_vertices,)
        assert res.trace is not None and res.trace.find("closeness")
        assert res.elapsed_seconds > 0
        assert res.pool.batch_calls >= 1
        assert "Q" not in res.summary() and "closeness" in res.summary()
        out = res.save(tmp_path / "run.json")
        doc = json.loads(out.read_text())
        assert doc["algorithm"] == "closeness"
        assert doc["trace"]["name"] == "trace"
        assert "parallel_work" in doc["cost_model"]
        assert doc["pool"]["batch_calls"] >= 1

    def test_run_callable_and_operands(self, small_rmat):
        res = run(repro.bfs, small_rmat, 0, trace=True)
        assert res.algorithm == "bfs"
        assert res.trace.find("level")

    def test_run_trace_false(self, small_rmat):
        res = run("degree", small_rmat, trace=False)
        assert res.trace is None
        assert res.flame() == "(tracing disabled)"
        assert res.to_dict()["trace"] is None

    def test_run_unknown_name(self, small_rmat):
        with pytest.raises(KeyError, match="unknown algorithm"):
            run("nope", small_rmat)

    def test_flame_output(self, small_rmat):
        res = run("betweenness", small_rmat)
        text = res.flame()
        assert "brandes" in text and "forward_level" in text
        assert flame_summary(res.trace, max_depth=2)
