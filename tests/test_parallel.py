"""Tests for the parallel runtime substrate: cost model, partitioner,
work-stealing simulation, and context plumbing."""

from __future__ import annotations

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

    def test_merge_accumulates(self):
        a, b = CostModel(), CostModel()
        a.phase(100, 1)
        b.phase(200, 2)
        b.serial(50)
        b.lock(3)
        a.merge(b)
        assert a.parallel_work == 300
        assert a.serial_work == 50
        assert a.lock_events == 3
        assert a.n_barriers == 2

    def test_phase_run_length_compression(self):
        cm = CostModel()
        for _ in range(100):
            cm.phase(10, 1)
        assert len(cm._phases) == 1
        assert cm.n_barriers == 100

    def test_invalid_inputs(self):
        cm = CostModel()
        with pytest.raises(ValueError):
            cm.phase(-1)
        with pytest.raises(ValueError):
            cm.serial(-1)
        with pytest.raises(ValueError):
            cm.modeled_time(0)

    def test_reset(self):
        cm = CostModel()
        cm.phase(10)
        cm.reset()
        assert cm.total_work == 0
        assert cm.n_barriers == 0

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

    def test_merge_carries_cas_and_flags(self):
        a, b = CostModel(), CostModel()
        b.phase(10, 1, flag_sync=True)
        b.cas(7)
        a.merge(b)
        assert a.cas_events == 7
        assert a.n_barriers == 1


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
        aware.record_phase_from_work(work)
        obliv = ParallelContext(8, degree_aware=False)
        obliv.record_phase_from_work(work)
        # same total work, worse granularity for the oblivious schedule
        assert aware.cost.parallel_work == obliv.cost.parallel_work
        assert aware.modeled_time(8) <= obliv.modeled_time(8)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelContext(0)

    def test_machine_model_barrier_growth(self):
        m = MachineModel()
        assert m.barrier_cost(1) == 0.0
        assert m.barrier_cost(32) > m.barrier_cost(4)
        assert m.lock_cost(32) > m.lock_cost(1)
