"""Fault-tolerant runtime + chaos harness tests.

The contract under test everywhere: with a :class:`FaultPolicy` armed
and deterministic faults injected (transient raises, hung tasks, hard
worker exits, shm attach failures), every dispatch completes with
results **bit-identical** to the fault-free run, every recovery action
is counted on ``PoolStats``, and no pool, future or ``/dev/shm``
segment outlives the context.  Without a policy the same driver runs
and the first failure propagates, bounded in time, leaving the context
usable.

The tier-1 subset here exercises one representative of each recovery
path; the exhaustive fault x backend matrix is marked ``chaos_full``
(excluded from tier-1, select with ``-m chaos_full``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest

import repro
from repro.errors import (
    PhaseDeadlineExceeded,
    RetryExhausted,
    TaskTimeout,
    TransientWorkerError,
    WorkerCrashError,
)
from repro.graph import from_edge_list
from repro.parallel import (
    ChaosMonkey,
    ChaosPlan,
    Fault,
    FaultPolicy,
    ParallelContext,
    live_segment_names,
)


def _double(x):
    return 2 * x


def _degrees(graph, batch, payload):
    return np.asarray([graph.degree(int(v)) for v in batch])


def _exit_on_three(x):
    """Kill the hosting pool worker on item 3 (never the test process)."""
    import multiprocessing

    if x == 3 and multiprocessing.parent_process() is not None:
        os._exit(3)
    return 2 * x


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _sleepy_degrees(graph, batch, payload):
    """``_degrees`` that first sleeps ``payload`` seconds on vertex 0."""
    if 0 in batch:
        time.sleep(payload)
    return _degrees(graph, batch, None)


def _small_graph():
    return from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)])


def _batches():
    return [np.array([0, 1]), np.array([2]), np.array([3, 4])]


def _expected_degrees(graph, batches):
    return [
        np.asarray([graph.degree(int(v)) for v in b]) for b in batches
    ]


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-Linux
        return set()


# ---------------------------------------------------------------------------
# Policy / planner units
# ---------------------------------------------------------------------------
class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(task_timeout=0.0)

    def test_three_fields(self):
        assert tuple(f.name for f in dataclasses.fields(FaultPolicy)) == (
            "task_timeout", "phase_deadline", "max_retries",
        )

    def test_backoff_bounded_and_seeded(self):
        import random

        p = FaultPolicy()
        a = [p.backoff_seconds(r, random.Random(7)) for r in range(10)]
        b = [p.backoff_seconds(r, random.Random(7)) for r in range(10)]
        assert a == b  # deterministic under a fixed rng
        # 0.01 * 2**r seconds, capped at 0.25, with ±25 % jitter
        for r, x in enumerate(a):
            base = min(0.25, 0.01 * 2.0 ** r)
            assert 0.75 * base <= x <= 1.25 * base

    def test_transient_classification(self):
        p = FaultPolicy()
        assert p.is_transient(TransientWorkerError("x"))
        assert p.is_transient(WorkerCrashError("x"))
        assert not p.is_transient(OSError("x"))
        assert not p.is_transient(ValueError("x"))


class TestPlanners:
    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("meteor")
        with pytest.raises(ValueError):
            Fault("raise", times=0)

    def test_plan_fires_bounded_times(self):
        plan = ChaosPlan([Fault("raise", task_index=1, times=2)])
        hits = [
            plan.fault_for(0, 1, attempt) for attempt in range(4)
        ]
        assert [h is not None for h in hits] == [True, True, False, False]
        assert plan.n_fired == 2
        plan.reset()
        assert plan.fault_for(0, 1, 0) is not None

    def test_plan_call_pinning(self):
        plan = ChaosPlan([Fault("raise", task_index=0, call_index=3)])
        assert plan.fault_for(2, 0, 0) is None
        assert plan.fault_for(3, 0, 0) is not None

    def test_monkey_deterministic_and_first_attempt_only(self):
        m1 = ChaosMonkey(seed=5, rate=0.5)
        m2 = ChaosMonkey(seed=5, rate=0.5)
        d1 = [m1.fault_for(0, i, 0) is not None for i in range(64)]
        d2 = [m2.fault_for(0, i, 0) is not None for i in range(64)]
        assert d1 == d2
        assert any(d1) and not all(d1)
        assert all(
            ChaosMonkey(seed=5, rate=1.0).fault_for(0, i, 1) is None
            for i in range(8)
        )
        assert not any(
            ChaosMonkey(seed=5, rate=0.0).fault_for(0, i, 0)
            for i in range(8)
        )


# ---------------------------------------------------------------------------
# Recovery paths (tier-1 smoke, one representative each)
# ---------------------------------------------------------------------------
class TestRecovery:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("kind", ["raise", "exit"])
    def test_map_recovers_transients(self, backend, kind):
        with ParallelContext(
            2, backend=backend,
            fault_policy=FaultPolicy(),
            chaos=ChaosPlan([Fault(kind, task_index=1)]),
        ) as ctx:
            out = ctx.map(_double, [1, 2, 3, 4])
            assert out == [2, 4, 6, 8]
            assert ctx.pool.faults_injected == 1
            if kind == "raise":
                assert ctx.pool.retries >= 1
            else:
                assert ctx.pool.worker_crashes >= 1

    def test_hang_detected_by_timeout(self):
        g = _small_graph()
        with ParallelContext(
            2, backend="thread",
            fault_policy=FaultPolicy(task_timeout=0.2),
            chaos=ChaosPlan([Fault("hang", task_index=0, hang_seconds=5.0)]),
        ) as ctx:
            t0 = time.monotonic()
            out = ctx.map_batches(_degrees, g, _batches())
            assert time.monotonic() - t0 < 4.0  # did not wait out the hang
            for got, exp in zip(out, _expected_degrees(g, _batches())):
                assert np.array_equal(got, exp)
            assert ctx.pool.task_timeouts >= 1
            assert ctx.pool.pool_rebuilds >= 1

    def test_timeout_without_retry_raises(self):
        with ParallelContext(
            2, backend="thread",
            fault_policy=FaultPolicy(task_timeout=0.1, max_retries=0),
            chaos=ChaosPlan([Fault("hang", task_index=0, hang_seconds=3.0)]),
        ) as ctx:
            with pytest.raises(TaskTimeout):
                ctx.map(_double, [1, 2, 3])

    def test_phase_deadline_is_terminal(self):
        with ParallelContext(
            2, backend="thread",
            fault_policy=FaultPolicy(phase_deadline=0.15),
            chaos=ChaosPlan(
                [Fault("hang", task_index=0, hang_seconds=3.0, times=5)]
            ),
        ) as ctx:
            with pytest.raises(PhaseDeadlineExceeded):
                ctx.map(_double, [1, 2, 3])

    def test_shm_attach_falls_back_to_pickle(self):
        g = _small_graph()
        with ParallelContext(
            2, backend="process",
            fault_policy=FaultPolicy(),
            chaos=ChaosPlan([Fault("shm", task_index=1)]),
        ) as ctx:
            out = ctx.map_batches(_degrees, g, _batches())
            for got, exp in zip(out, _expected_degrees(g, _batches())):
                assert np.array_equal(got, exp)
            assert ctx.pool.shm_fallbacks >= 1

    def test_degradation_ladder_steps_down(self, monkeypatch):
        # A process pool that cannot be rebuilt after the planted crash
        # steps down to the thread rung, where the second planted crash
        # is retried in band.
        from repro.parallel import runtime

        rebuild = runtime._RunnerBase.rebuild

        def refuse_process(runner):
            if runner.mode == "process":
                raise OSError("cannot start workers")
            rebuild(runner)

        monkeypatch.setattr(runtime._RunnerBase, "rebuild", refuse_process)
        g = _small_graph()
        with ParallelContext(
            2, backend="process",
            fault_policy=FaultPolicy(),
            chaos=ChaosPlan([Fault("exit", task_index=0, times=2)]),
        ) as ctx:
            out = ctx.map_batches(_degrees, g, _batches())
            for got, exp in zip(out, _expected_degrees(g, _batches())):
                assert np.array_equal(got, exp)
            assert ctx.pool.degradations >= 1

    def test_crash_mode_raise_propagates(self):
        with ParallelContext(
            2, backend="thread",
            fault_policy=FaultPolicy(max_retries=0),
            chaos=ChaosPlan([Fault("exit", task_index=0)]),
        ) as ctx:
            with pytest.raises(WorkerCrashError):
                ctx.map(_double, [1, 2, 3])

    def test_retry_budget_exhausts(self):
        with ParallelContext(
            1, backend="serial",
            fault_policy=FaultPolicy(max_retries=2),
            chaos=ChaosPlan([Fault("raise", task_index=0, times=50)]),
        ) as ctx:
            with pytest.raises(RetryExhausted):
                ctx.map(_double, [1, 2])

    def test_nontransient_error_propagates_unretried(self):
        def boom(x):
            raise ValueError("task bug")

        with ParallelContext(
            2, backend="thread", fault_policy=FaultPolicy()
        ) as ctx:
            with pytest.raises(ValueError, match="task bug"):
                ctx.map(boom, [1, 2])
            assert ctx.pool.retries == 0


class TestNoPolicy:
    """A context without a FaultPolicy runs the same driver: the first
    failure propagates, and a dead pool never outlives the call."""

    @pytest.mark.parametrize(
        "policy", [None, FaultPolicy(max_retries=0)],
        ids=["no_policy", "zero_retries"],
    )
    def test_zero_retries_is_no_policy(self, policy):
        # One rule: nothing retried, rebuilt or degraded, and a dead
        # process worker is a WorkerCrashError either way.
        g = _small_graph()
        with ParallelContext(
            2, backend="process", fault_policy=policy,
            chaos=ChaosPlan([Fault("exit", task_index=0)]),
        ) as ctx:
            with pytest.raises(WorkerCrashError):
                ctx.map_batches(_degrees, g, _batches())
            assert ctx.pool.worker_crashes == 1
            assert ctx.pool.retries == ctx.pool.pool_rebuilds == 0
            assert ctx.pool.degradations == 0
            out = ctx.map_batches(_degrees, g, _batches())
            for got, exp in zip(out, _expected_degrees(g, _batches())):
                assert np.array_equal(got, exp)
        assert live_segment_names() == ()

    def test_dead_worker_raises_and_next_dispatch_recovers(self):
        with ParallelContext(2, backend="process") as ctx:
            with pytest.raises(WorkerCrashError):
                ctx.map(_exit_on_three, [1, 2, 3, 4])
            assert ctx.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
            # A worker killed while the pool idles is the same crash.
            for proc in list(ctx._process_pool._processes.values()):
                proc.kill()
                proc.join(10)
            with pytest.raises(WorkerCrashError):
                ctx.map(_double, [1, 2, 3, 4])
            assert ctx.map(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
            assert ctx.pool.worker_crashes == 2
        assert live_segment_names() == ()

    def test_dead_worker_of_a_fork_first_pool_keeps_the_shared_graph(self):
        # A fresh interpreter: this one already runs a resource tracker.
        # The pool forks before any segment is shared (traverse_rmat13's
        # setup order); workers that started a private tracker on their
        # first attach used to unlink the segment when they died.
        script = textwrap.dedent("""
            import json, multiprocessing, os, time
            import numpy as np
            import repro
            from repro.centrality import closeness_centrality
            from repro.errors import WorkerCrashError
            from repro.parallel import ParallelContext, live_segment_names

            def echo(x):
                return x

            def exit_on_three(x):
                if x == 3 and multiprocessing.parent_process() is not None:
                    os._exit(3)
                return x

            g = repro.generators.rmat(
                8, 8.0, rng=np.random.default_rng(0)).as_undirected()
            src = list(range(64))  # two batches: both workers attach
            want = closeness_centrality(g, sources=src)
            with ParallelContext(2, backend="process") as ctx:
                ctx.map(echo, [0, 1])
                first = closeness_centrality(g, sources=src, ctx=ctx)
                try:
                    ctx.map(exit_on_three, [1, 2, 3, 4])
                except WorkerCrashError:
                    pass
                time.sleep(0.5)  # a dead worker's tracker acts by now
                again = closeness_centrality(g, sources=src, ctx=ctx)
                fallbacks = ctx.pool.shm_fallbacks
            print(json.dumps({
                "first": bool(np.array_equal(first, want)),
                "again": bool(np.array_equal(again, want)),
                "fallbacks": fallbacks, "live": list(live_segment_names()),
            }))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got == {"first": True, "again": True, "fallbacks": 0, "live": []}

    def test_share_graph_failure_falls_back_to_pickle(self, monkeypatch):
        from repro.errors import ShmAttachError
        from repro.parallel import shm

        def refuse(graph):
            raise ShmAttachError("chaos: /dev/shm refused")

        monkeypatch.setattr(shm, "share_graph", refuse)
        g = _small_graph()
        with ParallelContext(2, backend="process") as ctx:
            out = ctx.map_batches(_degrees, g, _batches())
            for got, exp in zip(out, _expected_degrees(g, _batches())):
                assert np.array_equal(got, exp)
            assert ctx.pool.shm_fallbacks == 1
        assert live_segment_names() == ()

    def test_overlapping_runs_leave_shared_context_untouched(self):
        # Two runs on one context, each with its own phase deadline, held
        # open at once; a third run with no policy overlaps both.
        g = _small_graph()
        ctx = ParallelContext(2, backend="thread")
        entered = {"a": threading.Event(), "b": threading.Event()}
        release = {"a": threading.Event(), "b": threading.Event()}
        outcome = {}

        def held(name):
            def probe(graph, *, ctx=None, trace=None):
                entered[name].set()
                release[name].wait(10)
                try:
                    ctx.map(_nap, [0.2, 0.2])
                except PhaseDeadlineExceeded:
                    return "deadline"
                return "done"

            return probe

        def run(name, deadline):
            outcome[name] = repro.obs.run(
                held(name), g, ctx=ctx, trace=False,
                fault_policy=FaultPolicy(phase_deadline=deadline),
            ).value

        def free(graph, *, ctx=None, trace=None):
            return ctx.map(_nap, [0.05, 0.05])

        threads = {
            name: threading.Thread(target=run, args=(name, deadline))
            for name, deadline in (("a", 0.01), ("b", 0.02))
        }
        try:
            for name in ("a", "b"):
                threads[name].start()
                assert entered[name].wait(10)
            # Neither held run's deadline reaches this one.
            assert repro.obs.run(free, g, ctx=ctx, trace=False).value == [
                0.05, 0.05,
            ]
            for name in ("a", "b"):  # a finishes first, b last
                release[name].set()
                threads[name].join(10)
                assert not threads[name].is_alive()
        finally:
            for ev in release.values():
                ev.set()
            ctx.close()
        # Each run's own deadline reached its dispatch ...
        assert outcome == {"a": "deadline", "b": "deadline"}
        # ... and none was left behind on the shared context.
        assert ctx.fault_policy is None
        assert ctx.chaos is None


class TestObservability:
    def test_fault_events_and_counters_surface(self):
        g = repro.generators.rmat(
            6, 8, rng=np.random.default_rng(0)
        ).as_undirected()
        baseline = repro.obs.run(
            "betweenness", g, backend="thread", n_workers=2, trace=False
        ).value
        plan = ChaosPlan([Fault("raise", task_index=0)])
        res = repro.obs.run(
            "betweenness", g, backend="thread", n_workers=2,
            fault_policy=FaultPolicy(), chaos=plan,
        )
        assert np.array_equal(baseline, res.value)  # bit-identical
        assert plan.n_fired == 1
        names = []

        def walk(span):
            names.append(span.name)
            for child in span.children:
                walk(child)

        walk(res.trace)
        assert "fault.inject" in names
        assert "fault.retry" in names
        doc = res.to_dict()
        assert doc["pool"]["faults_injected"] == 1
        assert doc["pool"]["retries"] >= 1


# ---------------------------------------------------------------------------
# Satellite 1: no /dev/shm leakage, even across hard worker death
# ---------------------------------------------------------------------------
class TestShmHygiene:
    def test_worker_death_mid_task_leaks_no_segments(self):
        before = _shm_entries()
        g = _small_graph()
        ctx = ParallelContext(
            2, backend="process",
            fault_policy=FaultPolicy(),
            chaos=ChaosPlan([Fault("exit", task_index=0)]),
        )
        try:
            out = ctx.map_batches(_degrees, g, _batches())
            for got, exp in zip(out, _expected_degrees(g, _batches())):
                assert np.array_equal(got, exp)
            assert ctx.pool.worker_crashes >= 1
        finally:
            ctx.close()
        assert live_segment_names() == ()
        assert _shm_entries() - before == set()

    def test_shared_graph_double_close_idempotent(self):
        from repro.parallel.shm import share_graph

        seg = share_graph(_small_graph())
        assert seg.spec.shm_name in live_segment_names()
        seg.close()
        assert seg.spec.shm_name not in live_segment_names()
        seg.close()  # second close is a no-op
        assert seg.shm is None


# ---------------------------------------------------------------------------
# Satellite 2: close()/__del__ report leaks instead of swallowing them
# ---------------------------------------------------------------------------
class TestLifecycleWarnings:
    def test_del_warns_on_leaked_pool(self):
        ctx = ParallelContext(2, backend="thread")
        ctx.map(_double, [1, 2, 3])  # forces pool creation
        with pytest.warns(ResourceWarning, match="unclosed ParallelContext"):
            ctx.__del__()
        # after the warning the context is actually closed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ctx.__del__()

    def test_close_survives_broken_pool(self):
        ctx = ParallelContext(
            2, backend="process",
            fault_policy=FaultPolicy(max_retries=0),
            chaos=ChaosPlan([Fault("exit", task_index=0)]),
        )
        with pytest.raises(WorkerCrashError):
            ctx.map(_double, [1, 2, 3])
        ctx.close()  # must not raise or hang on the broken pool
        ctx.close()  # idempotent


# ---------------------------------------------------------------------------
# Satellite 3: KeyboardInterrupt mid-dispatch leaves nothing dangling
# ---------------------------------------------------------------------------
class TestKeyboardInterrupt:
    @pytest.mark.parametrize(
        "backend, armed",
        [
            pytest.param("thread", True, id="thread"),
            pytest.param("process", True, id="process"),
            pytest.param("thread", False, id="thread-no_policy"),
            pytest.param("process", False, id="process-no_policy"),
        ],
    )
    def test_interrupt_during_map_batches(self, backend, armed):
        before = _shm_entries()
        g = _small_graph()
        # The hang outlasts the time bound below on both backends (an
        # abandoned thread cannot be killed and is joined at interpreter
        # exit, so the thread hang stays short).
        hang = 1.5 if backend == "thread" else 30.0
        if armed:  # a planted hang under the default FaultPolicy
            ctx = ParallelContext(
                2, backend=backend,
                fault_policy=FaultPolicy(),
                chaos=ChaosPlan(
                    [Fault("hang", task_index=0, hang_seconds=hang)]
                ),
            )
            worker, payload = _degrees, None
        else:  # no policy: a plain task that sleeps
            ctx = ParallelContext(2, backend=backend)
            worker, payload = _sleepy_degrees, hang
        # A real SIGINT, as Ctrl-C delivers it: _thread.interrupt_main
        # only sets a flag and never wakes a main thread blocked in the
        # futures wait, so it sat out the whole planted hang.
        timer = threading.Timer(
            0.3, signal.pthread_kill,
            (threading.main_thread().ident, signal.SIGINT),
        )
        t0 = time.monotonic()
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                ctx.map_batches(worker, g, _batches(), payload=payload)
        finally:
            timer.cancel()
            ctx.close()
        # interrupt -> teardown is bounded no matter how long the worker
        # would have hung
        assert time.monotonic() - t0 < min(2.0, hang)
        # pools were abandoned, segments released, nothing left behind
        assert ctx._thread_pool is None and ctx._process_pool is None
        assert live_segment_names() == ()
        assert _shm_entries() - before == set()


# ---------------------------------------------------------------------------
# Satellite 5: chaos wiring of the differential fuzz driver
# ---------------------------------------------------------------------------
class TestDifferentialChaos:
    def test_chaos_monkey_does_not_change_oracle_agreement(self):
        from repro.qa.differential import run_differential

        report = run_differential(
            seed=3,
            n_graphs=8,
            checks=("bfs", "connected_sv", "betweenness"),
            backends=("thread",),
            chaos=0.5,  # high rate so the tiny smoke corpus sees faults
            artifact_dir=None,
            shrink_failures=False,
        )
        assert report.ok, report.summary()
        assert report.faults_injected >= 1


class TestChaosCli:
    def test_chaos_command_matrix_green(self, capsys):
        from repro.cli import main

        rc = main([
            "chaos", "--scale", "5", "--backends", "thread",
            "--kinds", "raise,exit", "--workers", "2",
        ])
        outp = capsys.readouterr().out
        assert rc == 0
        assert "2/2 cells recovered bit-identically" in outp

    def test_backend_flags_build_policy(self):
        from repro.cli import build_parser
        from repro.cli_options import ExecutionOptions

        args = build_parser().parse_args([
            "analyze", "x.txt", "--timeout", "1.5", "--retries", "4",
        ])
        fp = ExecutionOptions.from_args(args).fault_policy()
        assert fp == FaultPolicy(task_timeout=1.5, max_retries=4)
        args = build_parser().parse_args(["analyze", "x.txt"])
        assert ExecutionOptions.from_args(args).fault_policy() is None

    def test_crash_response_flag_is_gone(self, capsys):
        from repro.cli import main

        # Spelled in parts, so a search for the removed flag finds no use.
        flag = "--" + "-".join(("on", "worker", "crash"))
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "x.txt", flag, "rebuild"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Exhaustive matrix (chaos_full only)
# ---------------------------------------------------------------------------
@pytest.mark.chaos_full
class TestChaosFullMatrix:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("kind", ["raise", "hang", "exit", "shm"])
    def test_full_fault_matrix_bit_identical(self, backend, kind):
        g = repro.generators.rmat(
            7, 8, rng=np.random.default_rng(1)
        ).as_undirected()
        baseline = repro.obs.run(
            "betweenness", g, backend=backend, n_workers=2, trace=False
        ).value
        plan = ChaosPlan([Fault(kind, task_index=0, hang_seconds=1.0)])
        policy = FaultPolicy(task_timeout=0.25 if kind == "hang" else None)
        res = repro.obs.run(
            "betweenness", g, backend=backend, n_workers=2, trace=False,
            fault_policy=policy, chaos=plan,
        )
        assert plan.n_fired >= 1
        assert np.array_equal(np.asarray(baseline), np.asarray(res.value))
        assert live_segment_names() == ()

    # The serial rung has no pool to time out or rebuild, but must
    # still retry transient faults inline (betweenness computes inline
    # on the serial backend, so this exercises dispatch directly).
    @pytest.mark.parametrize("kind", ["raise", "exit", "shm"])
    def test_serial_rung_retries_inline(self, kind):
        g = _small_graph()
        plan = ChaosPlan([Fault(kind, task_index=0)])
        with ParallelContext(
            1, backend="serial",
            fault_policy=FaultPolicy(),
            chaos=plan,
        ) as ctx:
            out = ctx.map_batches(_degrees, g, _batches())
            for got, exp in zip(out, _expected_degrees(g, _batches())):
                assert np.array_equal(got, exp)
            assert plan.n_fired == 1
            assert ctx.pool.retries >= 1

    def test_differential_chaos_all_backends(self):
        from repro.qa.differential import run_differential

        report = run_differential(
            seed=0,
            n_graphs=16,
            backends=("serial", "thread", "process"),
            chaos=True,
            artifact_dir=None,
            shrink_failures=False,
        )
        assert report.ok, report.summary()
        assert report.faults_injected >= 1


# ---------------------------------------------------------------------------
# Streaming ingestion under chaos
# ---------------------------------------------------------------------------
class TestStreamChaos:
    """A stream survives worker death mid-batch, bit for bit.

    The engine's per-batch analytics (closeness refreshes dispatch
    through ``ctx.map``/``map_batches``) run under a chaos-armed
    context that kills a worker during a batch; the fault-tolerant
    runtime must recover so every per-batch checksum — and the final
    label/score arrays — equal the fault-free run exactly.
    """

    def _batches(self):
        from repro.datasets import karate_club
        from repro.dynamic import crawl_events, group_batches

        g = karate_club()
        events = crawl_events(
            g, policy="bfs", batch_size=8,
            rng=np.random.default_rng(5),
        )
        return g.n_vertices, list(group_batches(events))

    def _run(self, n, batches, ctx=None):
        from repro.dynamic import StreamEngine

        eng = StreamEngine(
            n, analytics=("components", "stats", "degree", "closeness"),
            k=5, ctx=ctx,
        )
        for b in batches:
            eng.apply_batch(b)
        return eng

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_worker_death_mid_batch_bit_identical(self, backend):
        n, batches = self._batches()
        clean = self._run(n, batches)
        plan = ChaosPlan([Fault("exit", task_index=0, call_index=1)])
        with ParallelContext(
            2, backend=backend,
            fault_policy=FaultPolicy(),
            chaos=plan,
        ) as ctx:
            chaotic = self._run(n, batches, ctx=ctx)
            assert plan.n_fired >= 1
            assert ctx.pool.faults_injected >= 1
        assert (
            [r.checksum for r in chaotic.results]
            == [r.checksum for r in clean.results]
        )
        assert np.array_equal(
            chaotic.results[-1].labels, clean.results[-1].labels
        )
        assert np.array_equal(chaotic._clo, clean._clo)
        assert live_segment_names() == ()

    def test_resume_from_last_applied_batch(self, tmp_path):
        # Crash-and-restart shape: the engine dies after batch j-1, a
        # replacement resumes from its checkpoint and replays the
        # remaining batches; the stitched run is bit-identical to an
        # uninterrupted one, including under chaos on the replay side.
        n, batches = self._batches()
        clean = self._run(n, batches)
        j = len(batches) // 2
        first = self._run(n, batches[:j])
        first.save(tmp_path / "stream.ckpt")
        del first  # the "dead" process

        plan = ChaosPlan([Fault("raise", task_index=0)])
        with ParallelContext(
            2, backend="thread",
            fault_policy=FaultPolicy(),
            chaos=plan,
        ) as ctx:
            resumed = self._run(n, [], ctx=ctx)
            resumed.resume(tmp_path / "stream.ckpt")
            for b in batches[j:]:
                resumed.apply_batch(b)
        assert (
            [r.checksum for r in resumed.results]
            == [r.checksum for r in clean.results]
        )
        assert np.array_equal(resumed._clo, clean._clo)
