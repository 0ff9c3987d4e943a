"""Tests for the parallel runtime substrate: cost model, partitioner,
work-stealing simulation, and context plumbing."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import (
    CostModel,
    MachineModel,
    ParallelContext,
    chunk_ranges,
    imbalance_factor,
    simulate_work_stealing,
)
from repro.parallel.partitioner import chunk_work


def _lanes(graph, batch, payload) -> int:
    return len(batch)


class TestCostModel:
    def test_t1_equals_total_work(self):
        cm = CostModel()
        cm.phase(1000, 10)
        cm.serial(100)
        assert cm.modeled_time(1) == pytest.approx(1100 * cm.machine.t_op)

    def test_speedup_monotone_up_to_saturation(self):
        cm = CostModel()
        for _ in range(20):
            cm.phase(50_000, 10)
        s = [cm.speedup(p) for p in (1, 2, 4, 8, 16, 32)]
        assert s[0] == pytest.approx(1.0)
        assert all(b >= a for a, b in zip(s, s[1:]))
        assert s[-1] > 4

    def test_speedup_bounded_by_p(self):
        cm = CostModel()
        cm.phase(10_000, 1)
        for p in (2, 4, 8, 32):
            assert cm.speedup(p) <= p + 1e-9

    def test_serial_fraction_caps_speedup(self):
        cm = CostModel()
        cm.phase(1000, 1)
        cm.serial(1000)  # 50% serial → Amdahl cap of 2
        assert cm.speedup(32) < 2.0

    def test_granularity_caps_speedup(self):
        cm = CostModel()
        cm.phase(1000, 500)  # one huge item dominates
        assert cm.speedup(32) < 2.2

    def test_barriers_penalize_many_small_phases(self):
        fine = CostModel()
        for _ in range(1000):
            fine.phase(100, 1)
        coarse = CostModel()
        coarse.phase(100_000, 1)
        assert coarse.speedup(16) > fine.speedup(16)

    def test_charges_accumulate(self):
        cm = CostModel()
        cm.phase(100, 1)
        cm.phase(200, 2)
        cm.serial(50)
        cm.lock(3)
        assert cm.parallel_work == 300
        assert cm.serial_work == 50
        assert cm.span == 53
        assert cm.lock_events == 3
        assert cm.n_phases == 2

    def test_profile_size_is_fixed(self):
        import pickle

        cm = CostModel()
        cm.phase(10, 1)
        size = len(pickle.dumps(cm))
        for _ in range(999):
            cm.phase(10, 1)
            cm.cas(300)
            cm.region()
        assert cm.n_phases == 1000
        assert len(pickle.dumps(cm)) == size

    def test_invalid_inputs(self):
        cm = CostModel()
        with pytest.raises(ValueError):
            cm.phase(-1)
        with pytest.raises(ValueError):
            cm.serial(-1)
        with pytest.raises(ValueError):
            cm.modeled_time(0)

    def test_span_definition(self):
        cm = CostModel()
        cm.phase(100, 7)
        cm.phase(100, 3)
        cm.serial(11)
        assert cm.span == pytest.approx(21)

    def test_summary_keys(self):
        cm = CostModel()
        cm.phase(10)
        s = cm.summary()
        assert {"parallel_work", "serial_work", "span", "barriers",
                "cas_events"} <= set(s)

    def test_flag_sync_cheaper_than_barrier(self):
        barrier = CostModel()
        for _ in range(500):
            barrier.phase(50, 1)
        flags = CostModel()
        for _ in range(500):
            flags.phase(50, 1, flag_sync=True)
        assert flags.modeled_time(16) < barrier.modeled_time(16)
        assert flags.modeled_time(1) == barrier.modeled_time(1)

    def test_cas_cheaper_than_lock(self):
        locks = CostModel()
        locks.phase(1000, 1)
        locks.lock(200)
        cas = CostModel()
        cas.phase(1000, 1)
        cas.cas(200)
        assert cas.modeled_time(32) < locks.modeled_time(32)

    def test_closed_form(self):
        cm = CostModel()
        cm.phase(10, 3, flag_sync=True)
        cm.phase(90, 5)
        cm.serial(4)
        cm.cas(7)
        cm.lock(2)
        cm.region()
        m, p = cm.machine, 8
        assert (cm.n_phases, cm.n_flag_phases, cm.cas_events) == (2, 1, 7)
        assert cm.modeled_time(p) == pytest.approx(
            4 + 100 / p + (1 - 1 / p) * 8 + m.t_spawn + m.barrier_cost(p)
            + 8 * m.cas_cost(p) + 2 * m.lock_cost(p)
        )


def test_src_charges_the_cost_model_directly():
    """Kernels charge ``ctx.cost``; a ``ctx.<charge>(...)`` call (one
    that skips ``.cost``) names a method the context does not have."""
    charges = {"phase", "phase_from_work", "record_phase_from_work", "serial",
               "lock", "cas", "region", "modeled_time", "speedup"}
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in charges
                    and ast.unparse(node.func.value) in ("ctx", "self.ctx")):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


def test_only_the_context_makes_shared_segments():
    """``ParallelContext`` owns every shared-memory segment: no other
    ``src/`` module calls ``shm.share_graph`` (``ctx.share_graph`` is
    the one way in), so none can make a segment the context never
    closes."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "parallel/runtime.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").endswith("shm")
            for alias in node.names if alias.name == "share_graph"
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "share_graph"
                    and ast.unparse(f.value).split(".")[-1] in ("shm", "_shm")
                    or isinstance(f, ast.Name) and f.id in imported):
                found.append(f"{rel}:{node.lineno}")
    assert found == []


def test_only_the_context_builds_process_pools():
    """``ParallelContext`` owns its executors: no other ``src/`` module
    constructs a ``ProcessPoolExecutor`` (``ctx._pool("process")`` is
    the one way in), so none can fork workers the context never
    drops."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "parallel/runtime.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = {"ProcessPoolExecutor"} | {
            alias.asname
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name == "ProcessPoolExecutor" and alias.asname
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "ProcessPoolExecutor"
                    or isinstance(f, ast.Name) and f.id in names):
                found.append(f"{rel}:{node.lineno}")
    assert found == []


class TestPartitioner:
    def test_chunk_ranges_cover(self):
        chunks = chunk_ranges(10, 3)
        assert chunks == [(0, 4), (4, 7), (7, 10)]

    def test_chunk_ranges_more_workers_than_items(self):
        chunks = chunk_ranges(2, 5)
        sizes = [hi - lo for lo, hi in chunks]
        assert sum(sizes) == 2
        assert len(chunks) == 5

    @given(st.integers(0, 100), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_chunk_ranges_partition_property(self, n, p):
        chunks = chunk_ranges(n, p)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        for (a, b), (c, d) in zip(chunks, chunks[1:]):
            assert b == c and a <= b and c <= d

    def test_imbalance_factor_skewed(self):
        work = np.asarray([100, 1, 1, 1, 1, 1, 1, 1], dtype=float)
        # the oblivious chunk (0, 2) holds 101 of 107 units of work
        assert imbalance_factor(work, chunk_ranges(8, 4)) == pytest.approx(
            101 / (107 / 4)
        )
        assert imbalance_factor(np.ones(8), chunk_ranges(8, 4)) == 1.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)


class TestWorkStealing:
    def test_perfect_balance(self):
        stats = simulate_work_stealing(np.ones(64), 8)
        assert stats.makespan == pytest.approx(8.0)
        assert stats.steals == 0

    def test_single_worker(self):
        stats = simulate_work_stealing(np.asarray([3.0, 4.0]), 1)
        assert stats.makespan == 7.0

    def test_skewed_tasks_get_stolen(self):
        costs = np.asarray([100.0] + [1.0] * 7)
        stats = simulate_work_stealing(costs, 8, steal_cost=0.5)
        # the 100-cost task lower-bounds the makespan
        assert 100.0 <= stats.makespan < 107.0

    def test_stealing_beats_static_on_imbalance(self):
        rng = np.random.default_rng(0)
        costs = rng.pareto(1.5, size=200) + 0.1
        stats = simulate_work_stealing(costs, 8)
        static = chunk_work(costs, chunk_ranges(200, 8)).max()
        assert stats.makespan <= static + 1e-9

    def test_makespan_lower_bound(self):
        rng = np.random.default_rng(1)
        costs = rng.uniform(0.5, 2.0, 100)
        stats = simulate_work_stealing(costs, 4)
        assert stats.makespan >= costs.sum() / 4 - 1e-9
        assert stats.makespan >= costs.max() - 1e-9

    def test_empty_tasks(self):
        stats = simulate_work_stealing(np.empty(0), 4)
        assert stats.makespan == 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            simulate_work_stealing(np.asarray([-1.0]), 2)


class TestParallelContext:
    def test_map_sequential_matches_threads(self):
        f = lambda x: x + 1
        seq = ParallelContext(4, backend="serial").map(f, range(20))
        thr = ParallelContext(4, backend="thread").map(f, range(20))
        assert seq == thr == [x + 1 for x in range(20)]

    def test_map_charges_nothing(self):
        """Dispatch leaves the cost model to the calling kernel."""
        from repro.datasets.karate import karate_club

        for backend in ("serial", "thread"):
            with ParallelContext(2, backend=backend) as ctx:
                assert ctx.map(abs, [-1, 2, -3]) == [1, 2, 3]
                lanes = ctx.map_batches(_lanes, karate_club(), [[0, 1], [2]])
                assert lanes == [2, 1]
                assert ctx.cost.summary() == CostModel().summary()
                assert ctx.pool.map_calls == ctx.pool.batch_calls == 1

    def test_degree_aware_beats_oblivious_in_model(self):
        work = np.zeros(64)
        work[0] = 1000  # one hub vertex
        work[1:] = 1.0
        aware = ParallelContext(8, degree_aware=True)
        aware.cost.phase_from_work(work)
        obliv = ParallelContext(8, degree_aware=False)
        obliv.cost.phase_from_work(work)
        # same total work, worse granularity for the oblivious schedule
        assert aware.cost.parallel_work == obliv.cost.parallel_work
        assert aware.cost.modeled_time(8) <= obliv.cost.modeled_time(8)

    def test_concurrent_first_dispatches_share_a_graph_once(self):
        """Two threads making the first process-backend dispatch on one
        new graph make one segment between them, and ``close()``
        unlinks it."""
        import threading

        from repro import generators
        from repro.centrality import closeness_centrality
        from repro.parallel import live_segment_names

        g = generators.rmat(16, 8, rng=np.random.default_rng(1))
        before = set(live_segment_names())
        barrier = threading.Barrier(2)
        errors = []

        def query(ctx, i):
            try:
                barrier.wait(timeout=30)
                closeness_centrality(g, sources=[i, i + 2], ctx=ctx)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        with ParallelContext(2, backend="process") as ctx:
            # fork the workers while this is the only thread, as Session does
            ctx._pool("process").submit(int).result()
            threads = [threading.Thread(target=query, args=(ctx, i))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert errors == []
            assert len(set(live_segment_names()) - before) == 1
            assert ctx.pool.shm_segments == 1
        assert set(live_segment_names()) == before

    def test_concurrent_first_dispatches_build_one_pool(self, monkeypatch):
        """Four threads making the first process-backend ``map`` on a
        fresh context build one ``ProcessPoolExecutor`` between them,
        and ``close()`` leaves no worker behind."""
        import concurrent.futures
        import multiprocessing
        import threading

        from repro import _memory

        built = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        # The build calls _memory.release(): holding each builder there
        # until the others arrive (or 0.5 s passes) lets every thread
        # into an unguarded build every time.
        n = 4
        window = threading.Barrier(n)
        release = _memory.release

        def wait_for_the_other():
            try:
                window.wait(timeout=0.5)
            except threading.BrokenBarrierError:
                pass
            return release()

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(_memory, "release", wait_for_the_other)
        children = set(multiprocessing.active_children())
        start = threading.Barrier(n)
        errors, results = [], []

        def first_map(ctx):
            try:
                start.wait(timeout=30)
                results.append(ctx.map(abs, [-1, 2, -3]))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        with ParallelContext(2, backend="process") as ctx:
            threads = [threading.Thread(target=first_map, args=(ctx,))
                       for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        left = set(multiprocessing.active_children()) - children
        for pool in built:  # a pool the context lost is still shut down
            pool.shutdown(wait=True)
        assert errors == []
        assert results == [[1, 2, 3]] * n
        assert len(built) == 1
        assert left == set()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelContext(0)

    def test_machine_model_barrier_growth(self):
        m = MachineModel()
        assert m.barrier_cost(1) == 0.0
        assert m.barrier_cost(32) > m.barrier_cost(4)
        assert m.lock_cost(32) > m.lock_cost(1)
