"""Graph-service daemon tests: registry, coalescer, protocol, HTTP, facade.

Covers the service invariants end to end:

* residency — load-once semantics, LRU eviction under byte pressure,
  atomic failed loads, prompt shared-segment release on eviction;
* coalescing — concurrent threaded clients' merged batches are
  bit-identical to isolated per-request runs, identical requests
  deduplicate into one execution;
* the dispatch rule — a merged key with a batch in flight queues
  behind it unless a deadline is queued, otherwise an idle runner
  flushes at once and busy runners let a batch build until
  max_batch_delay / an urgent deadline; max_batch / close() flush any
  key;
* the counters stats() reads stay exact under runner contention;
* registry specs are introspected once per registration;
* the wire formats — zero-suppressed vectors decode bit for bit, a
  kept-alive connection survives error responses, a request is sent at
  most once;
* deadlines — an expired request gets a structured
  ``DeadlineExpired`` while its batch peers succeed;
* the HTTP server with concurrent stdlib clients, async tickets and
  structured wire errors;
* the ``repro.api`` facade sharing one validation path with the wire.
"""

from __future__ import annotations

import dataclasses
import http.client
import inspect
import itertools
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.api as api
from repro import generators
from repro.cli_options import ExecutionOptions
from repro.datasets import karate_club
from repro.errors import (
    AdmissionDenied,
    DeadlineExpired,
    GraphNotResident,
    ProtocolError,
    SnapError,
)
from repro.graph import from_edge_array, from_edge_list
from repro.graph.csr import Graph
from repro.graph import io as graph_io
from repro.obs.api import (
    ALGORITHMS,
    algorithm,
    algorithm_spec,
    split_operands,
    validate_params,
)
from repro.parallel import ParallelContext
from repro.parallel.shm import live_segment_names
from repro.serve import Coalescer, GraphRegistry
from repro.serve import server as serve_server
from repro.serve.client import ServeClient, _expand_sparse
from repro.serve.protocol import SPARSE_MAX_FILL, request_schema, to_jsonable
from repro.serve.server import ReproServer, ServeConfig
from repro.sharded import in_core_nbytes


@pytest.fixture(scope="module")
def small_world():
    return generators.watts_strogatz(
        120, 6, 0.1, rng=np.random.default_rng(7)
    )


def _twin(g):
    """A distinct resident-able Graph with ``g``'s arrays (same bytes)."""
    return Graph(g.offsets, g.targets, directed=g.directed)


@pytest.fixture(scope="module")
def rmat():
    return generators.rmat(8, 8, rng=np.random.default_rng(0)).as_undirected()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_load_once(self, tmp_path, small_world):
        p = tmp_path / "g.txt"
        graph_io.write_edge_list(small_world, str(p))
        reg = GraphRegistry()
        a = reg.load(str(p), name="g")
        b = reg.load(str(p), name="g")
        assert a is b
        assert reg.loads == 1 and reg.load_hits == 1

    def test_lru_eviction_under_byte_pressure(self, small_world):
        nbytes = in_core_nbytes(small_world)
        reg = GraphRegistry(max_bytes=2 * nbytes + 16)
        reg.add("a", _twin(small_world))
        reg.add("b", _twin(small_world))
        reg.get("a")  # touch: b becomes LRU
        reg.add("c", _twin(small_world))
        assert reg.names() == ["a", "c"]
        assert reg.evictions == 1

    def test_admission_denied_oversized(self, small_world):
        reg = GraphRegistry(max_bytes=in_core_nbytes(small_world) // 2)
        with pytest.raises(AdmissionDenied):
            reg.add("a", small_world)
        assert reg.names() == []

    def test_pinned_graphs_never_evicted(self, small_world):
        nbytes = in_core_nbytes(small_world)
        reg = GraphRegistry(max_bytes=nbytes + 16)
        other = _twin(small_world)
        reg.add("a", small_world)
        reg.pin("a")
        with pytest.raises(AdmissionDenied):
            reg.add("b", other)
        assert reg.names() == ["a"]
        reg.unpin("a")
        reg.add("b", other)
        assert reg.names() == ["b"]

    def test_second_name_for_a_resident_graph_costs_no_bytes(self):
        g = karate_club()
        nbytes = in_core_nbytes(g)
        reg = GraphRegistry(max_bytes=int(1.5 * nbytes))
        reg.add("a", g)
        reg.add("b", g)
        assert reg.names() == ["a", "b"]
        assert reg.evictions == 0
        assert reg.resident_bytes == nbytes == reg.stats()["resident_bytes"]
        # evicting one alias frees nothing; the last one frees the graph
        reg.add("c", _twin(g))
        assert reg.names() == ["c"] and reg.evictions == 2

    def test_byte_count_leaves_lazy_edge_ids_alone(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], directed=True)
        before = in_core_nbytes(g)
        assert g._arc_edge_ids is None  # counting did not build the map
        g.arc_edge_ids  # noqa: B018 - materialize it
        assert in_core_nbytes(g) == before

    def test_failed_load_leaves_no_name(self, tmp_path):
        reg = GraphRegistry()
        with pytest.raises(Exception):
            reg.load(str(tmp_path / "missing.txt"), name="ghost")
        with pytest.raises(GraphNotResident):
            reg.get("ghost")
        assert reg.names() == []

    def test_eviction_releases_segment_promptly(self, small_world):
        reg = GraphRegistry(ctx=ParallelContext(2, backend="process"))
        before = set(live_segment_names())
        reg.add("a", small_world)
        created = set(live_segment_names()) - before
        assert len(created) == 1
        reg.evict("a")
        assert not created & set(live_segment_names())

    def test_close_releases_all_segments(self, small_world, rmat):
        before = set(live_segment_names())
        with GraphRegistry(ctx=ParallelContext(2, backend="process")) as reg:
            reg.add("a", small_world)
            reg.add("b", small_world)  # one Graph, one segment
            reg.add("c", rmat)
            assert len(set(live_segment_names()) - before) == 2
        assert set(live_segment_names()) == before


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------
class Gate:
    """Holds batch runners until the test opens it.

    A request for a graph named ``<prefix>...`` (default ``gate<i>``)
    blocks inside ``registry.pin`` — on a runner thread, in flight —
    and, once opened, resolves ``GraphNotResident`` (or runs, for a
    resident name).  With ``limit`` only the first ``limit`` such pins
    block.  An idle runner dispatches at once, so coalescing is only
    deterministic behind busy runners; this makes them busy.
    """

    def __init__(self, registry, prefix="gate", limit=None):
        self.opened = threading.Event()
        self.holding = threading.Semaphore(0)
        pin = registry.pin
        gated = itertools.count()

        def gated_pin(name):
            if name.startswith(prefix) and (
                limit is None or next(gated) < limit
            ):
                self.holding.release()
                assert self.opened.wait(30)
            return pin(name)

        registry.pin = gated_pin

    def hold(self, coalescer, n=2):
        """Occupy ``n`` runners; returns once each one is blocked."""
        futs = [
            coalescer.submit(f"gate{i}", "bfs", {"source": 0})
            for i in range(n)
        ]
        for _ in futs:
            assert self.holding.acquire(timeout=10)
        return futs

    def open(self):
        self.opened.set()


def wait_until(cond, timeout=10.0):
    t0 = time.monotonic()
    while not cond():
        assert time.monotonic() - t0 < timeout, "condition never held"
        time.sleep(0.002)
    return time.monotonic() - t0


class TestCoalescer:
    def test_concurrent_bfs_merge_bit_identical(self, rmat):
        reg = GraphRegistry()
        reg.add("g", rmat)
        gate = Gate(reg)
        with Coalescer(reg, max_batch_delay=5.0) as co:
            gate.hold(co)
            sources = list(range(12))
            results = [None] * len(sources)
            submitted = threading.Barrier(len(sources) + 1)

            def client(i):
                fut = co.submit("g", "bfs", {"source": sources[i]})
                submitted.wait(10)
                results[i] = fut.result(timeout=30)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(sources))
            ]
            for t in threads:
                t.start()
            submitted.wait(10)
            gate.open()
            for t in threads:
                t.join()
            for i, s in enumerate(sources):
                iso = repro.bfs(rmat, s).distances
                assert np.array_equal(results[i].value, iso)
                # all twelve built up behind the busy runners and ran
                # as ONE merged traversal
                assert results[i].extras["serve"]["batch_size"] == 12
                assert results[i].extras["serve"]["coalesced"]
            assert reg.loads == 1
            stats = co.stats()
            assert stats["merged_requests"] == 12
            assert stats["batches"] == 3  # two gates + the merged batch

    def test_msbfs_merge_matches_isolated(self, rmat):
        reg = GraphRegistry()
        reg.add("g", rmat)
        with Coalescer(reg, max_batch_delay=0.02) as co:
            futs = [
                co.submit("g", "msbfs", {"sources": [0, 5, 9]}),
                co.submit("g", "msbfs", {"sources": [2, 5]}),
                co.submit("g", "bfs", {"source": 7}),
            ]
            got = [f.result() for f in futs]
        iso = repro.msbfs(rmat, [0, 5, 9])
        assert np.array_equal(got[0].value.distances, iso.distances)
        assert got[0].value.n_levels == iso.n_levels
        iso2 = repro.msbfs(rmat, [2, 5])
        assert np.array_equal(got[1].value.distances, iso2.distances)
        assert got[1].value.n_levels == iso2.n_levels
        assert np.array_equal(got[2].value, repro.bfs(rmat, 7).distances)

    @pytest.mark.parametrize("algo,key,bad", [
        ("bfs", "source", 1.5),
        ("bfs", "source", "3"),
        ("bfs", "source", True),
        ("bfs", "source", None),
        ("bfs", "source", [1]),
        ("msbfs", "sources", [0, 2.5]),
        ("msbfs", "sources", ["3"]),
        ("msbfs", "sources", [1, True]),
        ("msbfs", "sources", 3),
        ("closeness", "sources", [float("nan")]),
        ("closeness", "sources", [-1]),
    ])
    def test_non_integer_sources_refused_before_merging(self, rmat, algo,
                                                        key, bad):
        """A source that names no vertex is refused at submit, as the
        library refuses it, instead of being truncated to another
        vertex or failing the batch it would have merged into."""
        reg = GraphRegistry()
        reg.add("g", rmat)
        gate = Gate(reg)
        with Coalescer(reg, max_batch_delay=5.0) as co:
            gate.hold(co)
            good = [co.submit("g", "bfs", {"source": s}) for s in (1, 3.0)]
            try:
                with pytest.raises(ProtocolError, match=repr(key)):
                    co.submit("g", algo, {key: bad})
            finally:
                gate.open()
            got = [f.result(timeout=30) for f in good]
        for res, s in zip(got, (1, 3)):
            assert np.array_equal(res.value, repro.bfs(rmat, s).distances)
            assert res.extras["serve"]["batch_size"] == 2

    @pytest.mark.parametrize("algo,key", [("bfs", "source"),
                                          ("msbfs", "sources"),
                                          ("closeness", "sources")])
    def test_out_of_range_source_fails_only_its_request(self, rmat, algo,
                                                         key):
        """A source id >= n passes submit (it is an integer) and lands
        in a merged batch; only its own request fails, the rest still
        run as one merged dispatch."""
        n = rmat.n_vertices
        bad = n if algo == "bfs" else [0, n + 5]
        merge = "closeness" if algo == "closeness" else "bfs"
        want = "sources" if merge == "closeness" else "source"
        goods = ([1, 3], [3, 4]) if merge == "closeness" else (1, 3)
        reg = GraphRegistry()
        reg.add("g", rmat)
        gate = Gate(reg)
        with Coalescer(reg, max_batch_delay=5.0) as co:
            gate.hold(co)
            good = [co.submit("g", merge, {want: s}) for s in goods]
            refused = co.submit("g", algo, {key: bad})
            gate.open()
            with pytest.raises(ProtocolError,
                               match=f"source {n + (algo != 'bfs') * 5} out"):
                refused.result(timeout=30)
            got = [f.result(timeout=30) for f in good]
        for res, s in zip(got, goods):
            iso = (repro.closeness_centrality(rmat, sources=s)
                   if merge == "closeness" else repro.bfs(rmat, s).distances)
            assert np.array_equal(res.value, iso)
            assert res.extras["serve"]["batch_size"] == 2

    def test_all_sources_out_of_range_runs_nothing(self, rmat):
        reg = GraphRegistry()
        reg.add("g", rmat)
        gate = Gate(reg)
        n = rmat.n_vertices
        with Coalescer(reg, max_batch_delay=5.0) as co:
            gate.hold(co)
            futs = [co.submit("g", "closeness", {"sources": [s]})
                    for s in (n, n + 1)]
            gate.open()
            for f, s in zip(futs, (n, n + 1)):
                with pytest.raises(ProtocolError, match=f"source {s} out"):
                    f.result(timeout=30)

    def test_closeness_merge_matches_isolated(self, rmat):
        reg = GraphRegistry()
        reg.add("g", rmat)
        with Coalescer(reg, max_batch_delay=0.02) as co:
            futs = [
                co.submit("g", "closeness", {"sources": [1, 2, 3]}),
                co.submit("g", "closeness", {"sources": [3, 4]}),
            ]
            got = [f.result() for f in futs]
        iso = repro.closeness_centrality(rmat, sources=[1, 2, 3])
        assert np.array_equal(got[0].value, iso)
        iso2 = repro.closeness_centrality(rmat, sources=[3, 4])
        assert np.array_equal(got[1].value, iso2)

    def test_identical_requests_deduplicate(self, rmat):
        reg = GraphRegistry()
        reg.add("g", rmat)
        gate = Gate(reg)
        with Coalescer(reg, max_batch_delay=5.0) as co:
            gate.hold(co)
            futs = [
                co.submit("g", "connected_components", {}) for _ in range(6)
            ]
            gate.open()
            vals = [f.result().value for f in futs]
        assert all(np.array_equal(v, vals[0]) for v in vals)
        stats = co.stats()
        assert stats["dedup_hits"] == 5
        assert stats["batches"] == 3  # two gates + the one shared run

    def test_hit_rate_is_dispatches_saved_over_requests(self, rmat):
        # solo + merged + dedup traffic through one coalescer: the rate
        # is Σ(batch size − 1) / requests — a singleton batch saves
        # nothing and a dedup batch is not counted twice.
        reg = GraphRegistry()
        reg.add("g", rmat)
        gate = Gate(reg)
        with Coalescer(reg, max_batch_delay=5.0) as co:
            for s in range(3):  # idle runners: three batches of one
                co.submit("g", "bfs", {"source": s}).result(timeout=30)
            gate.hold(co)  # two more singleton batches
            futs = [co.submit("g", "bfs", {"source": s}) for s in range(4)]
            futs += [co.submit("g", "connected_components", {}) for _ in range(3)]
            gate.open()
            assert {f.result(timeout=30).extras["serve"]["batch_size"]
                    for f in futs} == {4, 3}
        stats = co.stats()
        assert stats["requests"] == 12
        assert stats["batches"] == 7
        assert stats["merged_requests"] == 7  # meaning unchanged: 4 + 3
        assert stats["dedup_hits"] == 2
        assert stats["coalescing_hit_rate"] == (3 + 2) / 12

    def test_deadline_expired_peers_succeed(self, rmat):
        reg = GraphRegistry()
        reg.add("g", rmat)
        with Coalescer(reg, max_batch_delay=0.05) as co:
            doomed = co.submit("g", "bfs", {"source": 0}, deadline_s=1e-9)
            time.sleep(0.002)  # let the doomed deadline lapse
            healthy = co.submit("g", "bfs", {"source": 1})
            with pytest.raises(DeadlineExpired):
                doomed.result(timeout=10)
            res = healthy.result(timeout=10)
            assert np.array_equal(res.value, repro.bfs(rmat, 1).distances)
            assert co.stats()["expired"] == 1

    def test_invalid_params_fail_fast(self, rmat):
        reg = GraphRegistry()
        reg.add("g", rmat)
        with Coalescer(reg) as co:
            with pytest.raises(TypeError):
                co.submit("g", "bfs", {"source": 0, "bogus": 1})
            with pytest.raises(ProtocolError):
                co.submit("g", "bfs", {})  # missing the source operand

    def test_max_batch_is_a_hard_cap(self, rmat):
        # A burst piling more than max_batch requests onto one key
        # between dispatcher wake-ups must still be split: max_batch=1
        # means one kernel dispatch per request, never accidental
        # merging (regression — the cap used to be only a flush
        # trigger, so the whole accumulated key ran as one batch).
        reg = GraphRegistry()
        reg.add("g", rmat)
        with Coalescer(reg, max_batch=1, max_batch_delay=0.05) as co:
            futs = [
                co.submit("g", "bfs", {"source": s}) for s in range(10)
            ]
            got = [f.result(timeout=30) for f in futs]
        for s, res in enumerate(got):
            assert np.array_equal(res.value, repro.bfs(rmat, s).distances)
            assert res.extras["serve"]["batch_size"] == 1
            assert not res.extras["serve"]["coalesced"]
        stats = co.stats()
        assert stats["batches"] == stats["requests"] == 10
        assert stats["merged_requests"] == 0
        assert stats["coalescing_hit_rate"] == 0.0

    def test_missing_graph_is_structured(self, rmat):
        reg = GraphRegistry()
        with Coalescer(reg, max_batch_delay=0.001) as co:
            fut = co.submit("nope", "bfs", {"source": 0})
            with pytest.raises(GraphNotResident):
                fut.result(timeout=10)


class TestDispatchRule:
    """A merged key with a batch in flight is held until that batch
    finishes, unless a queued request has a deadline; otherwise idle
    runner -> flush now, every runner busy -> the batch builds until
    max_batch_delay or an urgent deadline.  max_batch and close()
    flush any key, held or not."""

    @pytest.fixture()
    def reg(self, rmat):
        reg = GraphRegistry()
        reg.add("g", rmat)
        reg.add("h", rmat)
        return reg

    def hold_g(self, reg, co, algo="bfs", params=None):
        """Pin one ``g`` batch in flight on one runner; the other idles.
        Later ``g`` batches run ungated."""
        gate = Gate(reg, prefix="g", limit=1)
        first = co.submit("g", algo, {"source": 0} if params is None else params)
        assert gate.holding.acquire(timeout=10)
        assert co.stats()["in_flight"] == 1
        return gate, first

    def test_held_key_queues_behind_its_batch(self, reg, rmat):
        with Coalescer(reg, max_batch_delay=0.001) as co:
            gate, first = self.hold_g(reg, co)
            futs = [co.submit("g", "bfs", {"source": s}) for s in (1, 2, 3)]
            # another key takes the idle runner at once
            other = co.submit("h", "bfs", {"source": 4}).result(timeout=30)
            assert other.extras["serve"]["batch_size"] == 1
            assert np.array_equal(other.value, repro.bfs(rmat, 4).distances)
            # long past max_batch_delay with a runner idle, still queued
            time.sleep(0.1)
            assert co.stats()["in_flight"] == 1
            assert not any(f.done() for f in futs)
            gate.open()
            assert first.result(timeout=30).extras["serve"]["batch_size"] == 1
            for s, fut in zip((1, 2, 3), futs):
                res = fut.result(timeout=30)
                assert res.extras["serve"]["batch_size"] == 3
                assert np.array_equal(res.value, repro.bfs(rmat, s).distances)
            wait_until(lambda: co.stats()["in_flight"] == 0)
            assert co.stats()["batches"] == 3

    def test_held_key_flushes_at_max_batch(self, reg):
        with Coalescer(reg, max_batch_delay=60.0, max_batch=3) as co:
            gate, first = self.hold_g(reg, co)
            futs = [co.submit("g", "bfs", {"source": s}) for s in range(3)]
            # out while the held batch still runs
            for fut in futs:
                assert fut.result(timeout=30).extras["serve"]["batch_size"] == 3
            assert not first.done()
            gate.open()
            first.result(timeout=30)
            wait_until(lambda: co.stats()["in_flight"] == 0)

    def test_deadline_request_is_not_held(self, reg, rmat):
        # default max_batch_delay: a deadline request behind a held batch
        # that outlasts the deadline runs on the idle runner in time,
        # taking the key's queued requests along
        with Coalescer(reg) as co:
            gate, first = self.hold_g(reg, co)
            plain = co.submit("g", "bfs", {"source": 1})
            time.sleep(0.1)
            assert not plain.done()
            t0 = time.monotonic()
            fut = co.submit("g", "bfs", {"source": 2}, deadline_s=2.0)
            res = fut.result(timeout=2.0)
            # started at once, not with max_batch_delay left
            assert time.monotonic() - t0 < 1.0
            assert res.extras["serve"]["batch_size"] == 2
            assert np.array_equal(res.value, repro.bfs(rmat, 2).distances)
            assert plain.result(timeout=0).extras["serve"]["batch_size"] == 2
            assert not first.done()
            gate.open()
            first.result(timeout=30)
            wait_until(lambda: co.stats()["in_flight"] == 0)

    def test_dedup_key_is_not_held(self, reg):
        # a second identical run shares no work with the running one, so
        # it takes the idle runner instead of waiting the whole first run
        cc = "connected_components"
        with Coalescer(reg, max_batch_delay=60.0) as co:
            gate, first = self.hold_g(reg, co, cc, {})
            second = co.submit("g", cc, {}).result(timeout=30)
            assert second.extras["serve"]["batch_size"] == 1
            assert not first.done()
            gate.open()
            res = first.result(timeout=30)
            assert np.array_equal(res.value, second.value)
            wait_until(lambda: co.stats()["in_flight"] == 0)

    def test_close_flushes_held_key(self, reg):
        co = Coalescer(reg, max_batch_delay=60.0)
        gate, first = self.hold_g(reg, co)
        pending = co.submit("g", "bfs", {"source": 1})
        closer = threading.Thread(target=co.close)
        closer.start()
        # flushed while the held batch still runs
        assert pending.result(timeout=30).extras["serve"]["batch_size"] == 1
        assert not first.done() and closer.is_alive()
        gate.open()
        closer.join(30)
        assert not closer.is_alive()
        assert first.done()
        assert co.stats()["in_flight"] == 0

    def test_lone_request_does_not_pay_the_delay(self, reg, rmat):
        with Coalescer(reg, max_batch_delay=5.0) as co:
            t0 = time.monotonic()
            res = co.submit("g", "bfs", {"source": 3}).result(timeout=30)
            assert time.monotonic() - t0 < 1.0
        assert np.array_equal(res.value, repro.bfs(rmat, 3).distances)
        assert res.extras["serve"]["batch_size"] == 1

    def test_busy_runners_flush_at_max_batch_delay(self, reg):
        gate = Gate(reg)
        with Coalescer(reg, max_batch_delay=0.3) as co:
            gate.hold(co)
            first = co.submit("g", "bfs", {"source": 1})
            waited = wait_until(lambda: co.stats()["in_flight"] == 3)
            assert 0.25 <= waited < 5.0
            # already handed to the pool: a later request cannot join it
            second = co.submit("g", "bfs", {"source": 2})
            gate.open()
            for fut in (first, second):
                assert fut.result(timeout=30).extras["serve"]["batch_size"] == 1

    def test_busy_runners_flush_at_max_batch(self, reg):
        gate = Gate(reg)
        with Coalescer(reg, max_batch_delay=60.0, max_batch=3) as co:
            gate.hold(co)
            futs = [co.submit("g", "bfs", {"source": s}) for s in range(3)]
            wait_until(lambda: co.stats()["in_flight"] == 3)
            gate.open()
            for fut in futs:
                assert fut.result(timeout=30).extras["serve"]["batch_size"] == 3

    def test_busy_runners_flush_on_urgent_deadline(self, reg):
        gate = Gate(reg)
        with Coalescer(reg, max_batch_delay=60.0) as co:
            gate.hold(co)
            fut = co.submit("g", "bfs", {"source": 1}, deadline_s=30.0)
            wait_until(lambda: co.stats()["in_flight"] == 3)
            gate.open()
            assert fut.result(timeout=30).extras["serve"]["batch_size"] == 1

    def test_in_flight_count_survives_contention(self, reg, rmat):
        # more submitters than cores, a tiny switch interval: a lost
        # update on the count would wedge the dispatcher or leave it != 0
        want = {s: repro.bfs(rmat, s).distances for s in range(8)}
        failures = []

        def client(i):
            try:
                for j in range(15):
                    s = (i + j) % 8
                    algo, params = (
                        ("bfs", {"source": s}) if j % 3 else
                        ("connected_components", {})
                    )
                    res = co.submit("g", algo, params).result(timeout=60)
                    if algo == "bfs" and not np.array_equal(res.value, want[s]):
                        failures.append((i, j))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Coalescer(reg, max_batch_delay=0.001, max_batch=4) as co:
                threads = [
                    threading.Thread(target=client, args=(i,)) for i in range(12)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120)
                assert not any(t.is_alive() for t in threads)
                wait_until(lambda: co.stats()["in_flight"] == 0)
                assert co.stats()["requests"] == 12 * 15
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_counters_survive_contention(self, reg):
        # two runners bump the counters that stats() reads: a lost
        # update shows as batches != records or a short batch_size sum
        records = []
        n_clients, per_client = 12, 15

        def client(i):
            for j in range(per_client):
                doomed = (i + j) % 5 == 0
                algo, params = (
                    ("bfs", {"source": j % 8}) if j % 3 else
                    ("connected_components", {})
                )
                fut = co.submit(
                    "g", algo, params, deadline_s=1e-9 if doomed else None
                )
                try:
                    fut.result(timeout=60)
                except DeadlineExpired:
                    assert doomed

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Coalescer(reg, max_batch_delay=0.001, max_batch=4,
                           on_batch=records.append) as co:
                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(n_clients)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120)
                assert not any(t.is_alive() for t in threads)
                wait_until(lambda: co.stats()["in_flight"] == 0)
        finally:
            sys.setswitchinterval(interval)
        stats = co.stats()
        assert stats["requests"] == n_clients * per_client
        assert stats["expired"] > 0
        assert stats["batches"] == len(records)
        assert sum(r["attrs"]["batch_size"] for r in records) == (
            stats["requests"] - stats["expired"]
        )

    def test_in_flight_returns_to_zero(self, reg):
        def boom(_span):
            raise RuntimeError("profile sink failed")

        # on_batch runs after the futures resolve, so its failure
        # escapes the batch body: the count must come back regardless
        co = Coalescer(reg, on_batch=boom)
        co.submit("g", "bfs", {"source": 0}).result(timeout=30)
        with pytest.raises(GraphNotResident):
            co.submit("nope", "bfs", {"source": 0}).result(timeout=30)
        wait_until(lambda: co.stats()["in_flight"] == 0)
        gate = Gate(reg)
        held = gate.hold(co)
        assert co.stats()["in_flight"] == 2
        pending = co.submit("g", "bfs", {"source": 1})
        gate.open()
        co.close()
        assert co.stats()["in_flight"] == 0
        assert pending.done() and all(f.done() for f in held)


# ----------------------------------------------------------------------
# HTTP server + client
# ----------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path, rmat):
    path = tmp_path / "g.txt"
    graph_io.write_edge_list(rmat, str(path))
    with ReproServer(ServeConfig(port=0, max_batch_delay=0.01)) as srv:
        srv.start_background()
        host, port = srv.address
        client = ServeClient(host, port)
        client.load(str(path), name="g")
        yield srv, client, rmat


class TestHTTP:
    def test_concurrent_clients_bit_identical(self, server):
        srv, client, g = server
        host, port = srv.address
        out = [None] * 6
        # the six must meet behind busy runners, however slowly they land
        srv.session.coalescer.max_batch_delay = 60.0
        gate = Gate(srv.session.registry)
        gate.hold(srv.session.coalescer)
        queued = client.stats()["coalescer"]["requests"] + 6

        def go(i):
            with ServeClient(host, port) as c:
                out[i] = c.submit("g", "bfs", source=i)

        threads = [threading.Thread(target=go, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        wait_until(lambda: client.stats()["coalescer"]["requests"] == queued)
        gate.open()
        for t in threads:
            t.join()
        for i in range(6):
            iso = repro.bfs(g, i).distances
            assert np.array_equal(
                np.asarray(out[i]["value"], dtype=iso.dtype), iso
            )
            assert out[i]["serve"]["batch_size"] == 6
            assert out[i]["serve"]["coalesced"]

    def test_ticket_roundtrip(self, server):
        _, client, g = server
        ticket = client.submit("g", "closeness", wait=False)["ticket"]
        doc = client.wait(ticket, timeout=60)
        iso = repro.closeness_centrality(g)
        assert np.allclose(np.asarray(doc["value"]), iso)

    def test_pending_ticket_is_never_dropped(self, server, monkeypatch):
        # Past the cap a wait=false submit evicts the oldest *resolved*
        # ticket; while every held ticket is pending it is refused (507)
        # before it is queued.  The cap used to pop t1 while it was queued.
        srv, client, g = server
        monkeypatch.setattr(serve_server, "MAX_TICKETS", 2)
        gate = Gate(srv.session.registry)
        gate.hold(srv.session.coalescer)
        t1 = client.submit("g", "bfs", source=1, wait=False)["ticket"]
        t2 = client.submit("g", "bfs", source=2, wait=False)["ticket"]
        queued = client.stats()["coalescer"]["requests"]
        with pytest.raises(AdmissionDenied, match="pending"):
            client.submit("g", "bfs", source=3, wait=False)
        assert client.stats()["coalescer"]["requests"] == queued
        assert client.result(t1) is None  # still held, still pending
        gate.open()
        wait_until(lambda: all(f.done() for f in srv._tickets.values()))
        t3 = client.submit("g", "bfs", source=3, wait=False)["ticket"]
        with pytest.raises(GraphNotResident, match="t1"):
            client.result(t1)  # the oldest resolved one made room
        for t, s in ((t2, 2), (t3, 3)):
            got = client.wait(t, timeout=60)["value"]
            assert np.array_equal(got, repro.bfs(g, s).distances)

    def test_finished_ticket_is_fetched_once(self, server):
        srv, _, _ = server
        fut = Future()
        fut.set_result(None)
        ticket = srv.register_ticket(lambda: fut)
        start, got = threading.Barrier(8), []

        def take():
            start.wait()
            try:
                got.append(srv.take_ticket(ticket))
            except GraphNotResident:
                pass

        threads = [threading.Thread(target=take) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [fut]

    @pytest.mark.parametrize("name, text", [
        ("bad.gr", "p sp 3 1\na 1 x 1.0\n"),
        ("bad.graph", "3 2\n2 x\n1\n\n"),
        ("bad.txt", "0 1\n1\n"),
        ("missing.txt", None),
    ], ids=["dimacs", "metis", "edge-list", "missing"])
    def test_bad_load_is_a_bad_request(self, server, tmp_path, name, text):
        _, client, _ = server
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        with pytest.raises(ProtocolError, match="cannot load"):
            client.load(str(path), name="bad")
        assert "bad" not in [r["name"] for r in client.graphs()["resident"]]

    def test_result_envelope_keys(self, server):
        # exactly the keys protocol.py documents: a field cannot reappear
        _, client, _ = server
        assert set(client.submit("g", "bfs", source=0)) == {
            "id", "algo", "graph", "value", "elapsed_seconds", "backend",
            "serve",
        }

    def test_structured_errors_over_wire(self, server):
        _, client, _ = server
        with pytest.raises(GraphNotResident):
            client.submit("missing", "bfs", source=0)
        with pytest.raises(ProtocolError):
            client.submit("g", "bfs", bogus=True)
        with pytest.raises(ProtocolError):
            client.submit("g", "no_such_algorithm")

    def test_non_integer_sources_refused_over_wire(self, server):
        _, client, g = server
        for algo, params in [("bfs", {"source": 1.5}),
                             ("bfs", {"source": "3"}),
                             ("bfs", {"source": True}),
                             ("msbfs", {"sources": [0, 2.5]}),
                             ("closeness", {"sources": [1.5]})]:
            with pytest.raises(ProtocolError, match="source"):
                client.submit("g", algo, **params)
        iso = repro.bfs(g, 3).distances
        got = client.submit("g", "bfs", source=3.0)["value"]
        assert np.array_equal(np.asarray(got, dtype=iso.dtype), iso)

    def test_out_of_range_source_fails_one_request_over_wire(self, server):
        srv, client, g = server
        host, port = srv.address
        n = g.n_vertices
        srv.session.coalescer.max_batch_delay = 60.0
        gate = Gate(srv.session.registry)
        gate.hold(srv.session.coalescer)
        queued = client.stats()["coalescer"]["requests"] + 3
        out = {}

        def go(s):
            with ServeClient(host, port) as c:
                try:
                    out[s] = c.submit("g", "bfs", source=s)
                except SnapError as exc:
                    out[s] = exc

        threads = [threading.Thread(target=go, args=(s,)) for s in (2, n, 5)]
        for t in threads:
            t.start()
        wait_until(lambda: client.stats()["coalescer"]["requests"] == queued)
        gate.open()
        for t in threads:
            t.join()
        assert isinstance(out[n], ProtocolError)
        assert f"source {n} out of range" in str(out[n])
        for s in (2, 5):
            iso = repro.bfs(g, s).distances
            assert np.array_equal(np.asarray(out[s]["value"], dtype=iso.dtype),
                                  iso)
            assert out[s]["serve"]["batch_size"] == 2

    def test_schema_published_from_registry(self, server):
        _, client, _ = server
        doc = client.algorithms()
        assert doc["version"] == 2
        assert doc["value_encodings"]["sparse"]["fields"] == [
            "type", "n", "index", "value"
        ]
        assert set(doc["algorithms"]) == set(repro.algorithm_names())
        bfs_spec = doc["algorithms"]["bfs"]
        assert bfs_spec["coalesce"] == "merge-sources"
        assert [o["name"] for o in bfs_spec["operands"]] == ["source"]
        assert doc["algorithms"]["pla"]["coalesce"] == "dedup-identical"

    def test_schema_lost_only_the_stream_window(self, server):
        """With ``stream_replay``'s burst ``window`` put back, the schema
        hashes to the one published before that knob was removed."""
        import hashlib

        _, client, _ = server
        doc = client.algorithms()
        params = doc["algorithms"]["stream_replay"]["params"]
        assert "window" not in params
        params["window"] = {"type": "integer", "default": 1024}
        digest = hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()
        assert digest == (
            "4434fa1ac5f643f70084b057360e105b032a75d132725cc30043d904202b059f"
        )

    def test_stats_and_residency(self, server):
        _, client, _ = server
        client.submit("g", "bfs", source=0)
        stats = client.stats()
        assert stats["coalescer"]["requests"] >= 1
        assert stats["registry"]["loads"] == 1
        assert [e["name"] for e in client.graphs()["resident"]] == ["g"]

    def test_evict_over_wire(self, server):
        _, client, _ = server
        assert client.evict("g") is True
        assert client.evict("g") is False
        with pytest.raises(GraphNotResident):
            client.submit("g", "bfs", source=0)


# ----------------------------------------------------------------------
# Wire formats and the kept-alive transport
# ----------------------------------------------------------------------
def decode(payload):
    """Exactly what ``ServeClient._request`` does with a response body."""
    return json.loads(payload, object_hook=_expand_sparse)


def over_the_wire(value):
    return decode(json.dumps(to_jsonable(value)).encode())


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def mostly_zero(n, at):
    x = np.zeros(n)
    for i, v in at.items():
        x[i] = v
    return x


@dataclasses.dataclass
class _Scored:
    name: str
    scores: np.ndarray


class TestSparseVectors:
    @pytest.mark.parametrize("x", [
        np.zeros(0),
        np.zeros(64),
        np.arange(1.0, 65.0),                       # fully dense
        np.array([0.0, 1.5, 0.0]),                  # one non-zero is > fill
        mostly_zero(64, {3: -0.0}),
        mostly_zero(64, {0: np.nan, 63: 2.5}),
        mostly_zero(64, {5: np.inf, 6: -np.inf}),
        mostly_zero(64, {9: 5e-324, 10: -5e-324}),    # subnormals
        mostly_zero(64, {1: 0.1, 2: 1 / 3}).astype(np.float32),
    ], ids=lambda x: f"{x.dtype}-{x.shape[0]}-{np.count_nonzero(x)}")
    def test_round_trip_is_bit_exact(self, x):
        got = over_the_wire(x)
        assert isinstance(got, list)
        assert bits(got) == bits(x.tolist())

    @given(st.lists(
        st.one_of(
            st.just(0.0), st.just(0.0), st.just(0.0), st.just(0.0),
            st.sampled_from([-0.0, float("nan"), float("inf"), 5e-324]),
            st.floats(allow_nan=False),
        ),
        max_size=60,
    ))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, values):
        x = np.asarray(values, dtype=np.float64)
        assert bits(over_the_wire(x)) == bits(x.tolist())
        nested = over_the_wire(_Scored("s", x))
        assert nested["type"] == "_Scored" and nested["name"] == "s"
        assert bits(nested["scores"]) == bits(x.tolist())

    def test_form_follows_the_fill_constant(self):
        n = 100
        cut = int(SPARSE_MAX_FILL * n)
        below = mostly_zero(n, dict.fromkeys(range(cut - 1), 1.0))
        at = mostly_zero(n, dict.fromkeys(range(cut), 1.0))
        doc = to_jsonable(below)
        assert doc["type"] == "sparse" and doc["n"] == n
        assert doc["index"] == list(range(len(doc["value"])))
        assert isinstance(to_jsonable(at), list)
        # only 1-D float vectors: integer and 2-D payloads stay lists
        assert to_jsonable(np.zeros(n, dtype=np.int64)) == [0] * n
        assert to_jsonable(np.zeros((2, n))) == [[0.0] * n] * 2

    def test_restricted_closeness_travels_sparse(self, server):
        srv, client, g = server
        host, port = srv.address
        conn = http.client.HTTPConnection(host, port)
        conn.request("POST", "/v1/submit", body=json.dumps({
            "graph": "g", "algo": "closeness", "params": {"sources": [1, 2]},
        }))
        raw = conn.getresponse().read()
        conn.close()
        assert json.loads(raw)["value"]["type"] == "sparse"
        want = repro.closeness_centrality(g, sources=[1, 2])
        assert bits(decode(raw)["value"]) == bits(want)
        assert bits(client.submit("g", "closeness", sources=[1, 2])["value"]) \
            == bits(want)


class TestKeepAlive:
    def test_error_responses_leave_the_connection_in_sync(self, tmp_path):
        # An early exit that left the POST body unread would have it
        # parsed as the next request line on this same connection.
        cfg = ServeConfig(port=0, state_dir=str(tmp_path / "state"))
        with ReproServer(cfg) as srv:
            srv.start_background()
            conn = http.client.HTTPConnection(*srv.address)

            def call(method, path, doc=None):
                body = None if doc is None else json.dumps(doc).encode()
                conn.request(method, path, body=body)
                resp = conn.getresponse()
                return resp.status, json.loads(resp.read())

            submit = {"graph": "g", "algo": "bfs", "params": {"source": 0}}
            status, doc = call("POST", "/v1/submit", submit)
            assert (status, doc["error"]["code"]) == (503, "recovering")
            sock = conn.sock
            assert call("GET", "/v1/health")[0] == 200
            srv.recover()
            status, doc = call("POST", "/v1/submit", {"graph": 5, "pad": "x" * 999})
            assert (status, doc["error"]["code"]) == (400, "bad_request")
            assert call("GET", "/v1/graphs") == (200, srv.session.registry.stats())
            status, doc = call("POST", "/v1/nope", submit)
            assert (status, doc["error"]["code"]) == (404, "bad_request")
            assert call("POST", "/v1/evict", {"name": "zz"}) == (
                200, {"evicted": False, "name": "zz"}
            )
            assert conn.sock is sock  # one connection throughout
            # a body of unknowable length cannot be skipped: 400 + close
            conn.putrequest("POST", "/v1/evict")
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400 and b"Content-Length" in resp.read()
            wait_until(lambda: select.select([conn.sock], [], [], 0)[0])
            assert conn.sock.recv(1) == b""  # the server hung up
            conn.close()

    def test_one_connection_reused_shared_and_closed(self, server):
        srv, client, g = server
        client.health()
        sock = client._conn.sock
        assert sock is not None
        client.stats()
        assert client._conn.sock is sock
        # shared between threads: safe, every answer the right one
        out = [None] * 8

        def go(i):
            out[i] = client.submit("g", "bfs", source=i)["value"]

        threads = [threading.Thread(target=go, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        for i in range(8):
            assert out[i] == repro.bfs(g, i).distances.tolist()
        assert client._conn.sock is sock
        client.close()
        assert client._conn.sock is None
        assert client.health()["ok"]  # reopens on demand
        with ServeClient(*srv.address) as c:
            c.health()
        assert c._conn.sock is None

    def test_reconnects_when_found_closed_before_sending(
        self, server, monkeypatch
    ):
        _, client, _ = server
        send = serve_server._Handler._send

        def send_then_hang_up(handler, status, doc):
            send(handler, status, doc)
            handler.close_connection = True  # no "Connection: close" sent

        monkeypatch.setattr(serve_server._Handler, "_send", send_then_hang_up)
        assert client.health()["ok"]
        stale = client._conn.sock
        assert stale is not None
        wait_until(lambda: select.select([stale], [], [], 0)[0])  # the FIN
        assert client.ingest("g", [[1, "add", 0, 200]])["n_batches_applied"] == 1
        assert client._conn.sock is not stale

    def test_request_the_server_may_have_applied_is_never_resent(
        self, server, monkeypatch
    ):
        _, client, g = server
        send = serve_server._Handler._send
        applied = []

        def drop_ingest_reply(handler, status, doc):
            if handler.path != "/v1/ingest":
                return send(handler, status, doc)
            applied.append(doc)  # _send runs after the ingest applied
            handler.connection.shutdown(socket.SHUT_RDWR)
            handler.close_connection = True

        monkeypatch.setattr(serve_server._Handler, "_send", drop_ingest_reply)
        u, v = 0, 255
        assert v not in g.neighbors(u)
        client.health()  # the ingest goes out on a reused connection
        with pytest.raises((OSError, http.client.HTTPException)):
            client.ingest("g", [[1, "add", u, v]])
        assert len(applied) == 1
        assert applied[0]["n_batches_total"] == 2  # the seed graph + ONE batch
        # and the client is usable again, seeing exactly one application
        resident = client.graphs()["resident"][0]
        assert resident["n_edges"] == g.n_edges + 1


# ----------------------------------------------------------------------
# repro.api facade
# ----------------------------------------------------------------------
class TestFacade:
    def test_raw_graph_run_matches_engine(self, rmat):
        res = api.run("closeness", rmat)
        assert np.array_equal(res.value, repro.closeness_centrality(rmat))

    def test_session_load_submit_run(self, tmp_path, rmat):
        p = tmp_path / "g.txt"
        graph_io.write_edge_list(rmat, str(p))
        with api.Session(max_batch_delay=0.005) as s:
            h = s.load(str(p), name="g")
            assert h.describe()["n_vertices"] == rmat.n_vertices
            fut = s.submit(h, "bfs", source=0)
            res = s.run("bfs", h, source=1)
            assert np.array_equal(
                fut.result().value, repro.bfs(rmat, 0).distances
            )
            assert np.array_equal(res.value, repro.bfs(rmat, 1).distances)

    def test_positional_operands_fold_by_name(self, rmat):
        a = api.run("bfs", rmat, 0)
        b = api.run("bfs", rmat, source=0)
        assert np.array_equal(a.value.distances, b.value.distances)

    def test_session_cost_model_stays_one_size(self, rmat):
        """Every request charges the session's one context, and its cost
        model is running sums: 200 requests leave it the size of 20."""
        import pickle

        n = rmat.n_vertices
        sizes = []
        with api.Session() as s:
            h = s.add("g", rmat)
            for i in range(1, 201):
                srcs = [i % n, (7 * i) % n, (31 * i) % n][: 1 + i % 3]
                s.run("msbfs" if i % 2 else "closeness", h, sources=srcs)
                if i in (20, 200):
                    sizes.append(len(pickle.dumps(s.ctx.cost)))
        assert sizes[0] == sizes[1]

    def test_one_validation_path(self, rmat):
        with pytest.raises(TypeError, match="bogus"):
            api.run("bfs", rmat, source=0, bogus=1)
        with api.Session() as s:
            h = s.add("g", rmat)
            with pytest.raises(TypeError, match="bogus"):
                s.submit(h, "bfs", source=0, bogus=1)


# ----------------------------------------------------------------------
# Registry-generated specs
# ----------------------------------------------------------------------
class TestSpecs:
    def test_every_algorithm_has_a_spec(self):
        for name in repro.algorithm_names():
            spec = algorithm_spec(name)
            assert spec["name"] == name
            assert isinstance(spec["operands"], list)
            assert isinstance(spec["params"], dict)

    def test_split_operands(self):
        ops, kw = split_operands("bfs", {"source": 3, "max_depth": 2})
        assert ops == (3,)
        assert kw == {"max_depth": 2}
        with pytest.raises(TypeError):
            split_operands("bfs", {"max_depth": 2})

    def test_validate_rejects_unknown(self):
        with pytest.raises(TypeError, match="accepted"):
            validate_params("closeness", {"nope": 1})
        validate_params("closeness", {"sources": [1], "wf_improved": False})

    def test_spec_introspected_once(self, monkeypatch):
        validate_params("closeness", {"sources": [1]})
        calls = []
        signature = inspect.signature

        def spy(fn, *a, **kw):
            calls.append(fn)
            return signature(fn, *a, **kw)

        monkeypatch.setattr(inspect, "signature", spy)
        for _ in range(3):
            validate_params("closeness", {"sources": [1]})
            split_operands("closeness", {"sources": [1]})
            algorithm_spec("closeness")
        assert calls == []

    def test_reregistered_name_gets_its_new_spec(self):
        name = "toy_spec_reregistered"
        try:
            @algorithm(name, operands=1)
            def toy(graph, source, *, depth=1):
                return source

            assert list(algorithm_spec(name)["params"]) == ["depth"]

            @algorithm(name)
            def toy2(graph, *, width=2.0):
                return width

            spec = algorithm_spec(name)
            assert spec["operands"] == []
            assert spec["params"] == {
                "width": {"type": "number", "default": 2.0}
            }
            with pytest.raises(TypeError):
                validate_params(name, {"depth": 3})
        finally:
            ALGORITHMS.pop(name, None)

    def test_wire_round_leaves_the_schema_unchanged(self, server, monkeypatch):
        srv, client, _ = server
        host, port = srv.address

        def schema_bytes():
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request("GET", "/v1/algorithms")
                return conn.getresponse().read()
            finally:
                conn.close()

        before = schema_bytes()
        client.submit("g", "bfs", source=0)
        client.submit("g", "closeness", sources=[1, 2])
        client.submit("g", "msbfs", sources=[0, 3])
        client.submit("g", "connected_components")
        assert schema_bytes() == before
        cached = json.dumps(request_schema())
        for fn in ALGORITHMS.values():  # a cold introspection: the same
            monkeypatch.setattr(fn, "__spec__", None)
        assert json.dumps(request_schema()) == cached


# ----------------------------------------------------------------------
# Streaming ingestion (/v1/ingest + Session.ingest)
# ----------------------------------------------------------------------
def span_names(span):
    """Every span name in a serialized span subtree."""
    yield span["name"]
    for child in span["children"]:
        yield from span_names(child)


class TestServeProfile:
    def test_daemon_profile_records_real_batch_spans(self, tmp_path, rmat):
        """Every counted batch, a refused one included, is one timed
        ``serve.batch`` span holding a ``serve.request`` per request and
        the algorithm's own span tree."""
        prof = tmp_path / "serve.json"
        path = tmp_path / "g.npz"
        graph_io.save_npz(rmat, path)
        config = ServeConfig(
            port=0, options=ExecutionOptions(profile=str(prof))
        )
        with ReproServer(config) as srv:
            srv.start_background()
            with ServeClient(*srv.address) as client:
                client.load(str(path), name="g")
                client.submit("g", "msbfs", sources=[0, 1, 2])
                client.submit("g", "pla", seed=0)
                with pytest.raises(GraphNotResident):
                    client.submit("nope", "msbfs", sources=[0])
        doc = json.loads(prof.read_text())
        batches = doc["batches"]
        assert len(batches) == doc["serve"]["coalescer"]["batches"] == 3
        assert all(b["duration_s"] > 0 for b in batches)
        by_key = {(b["attrs"]["graph"], b["attrs"]["algo"]): b for b in batches}
        assert "msbfs" in span_names(by_key["g", "msbfs"])
        assert "pla" in span_names(by_key["g", "pla"])
        assert "msbfs" not in span_names(by_key["nope", "msbfs"])
        for b in batches:
            requests = [c for c in b["children"] if c["name"] == "serve.request"]
            assert len(requests) == b["attrs"]["batch_size"] == 1


def memo_graphs():
    """R-MAT 10, a weighted graph (the Dijkstra branch) and a directed
    one; residency keeps a directed graph's undirected view, so that
    view is the library's reference for it."""
    rng = np.random.default_rng(11)
    base = generators.rmat(10, 8, rng=rng)
    small = generators.rmat(7, 8, rng=rng)  # a Dijkstra per source
    u, v = small.edge_endpoints()
    weighted = from_edge_array(small.n_vertices, u, v,
                               weights=rng.integers(1, 6, size=u.shape[0]))
    directed = generators.rmat(8, 8, directed=True, rng=rng)
    assert not weighted.has_unit_weights and directed.directed
    return {"rmat10": (base, base), "weighted": (weighted, weighted),
            "directed": (directed, directed.as_undirected())}


def memo_hits(s):
    return s.stats()["coalescer"]["memo_hits"]


def memo_arrays(s, name):
    """Every float64 array the named entry's closeness memo holds."""
    return list(s.registry.get(name).closeness.values())


class TestClosenessMemo:
    """A resident entry answers each closeness source once per
    ``wf_improved``: a repeat is the memoised score, bit for bit."""

    @pytest.mark.parametrize("name", ["rmat10", "weighted", "directed"])
    def test_answers_are_the_library_bit_for_bit(self, name):
        g, ref_graph = memo_graphs()[name]
        n = g.n_vertices
        plan = [[3, 1, 4], [3, 1, 4], [4, 5, 9, 2], None, [6, 5], [0]]
        with api.Session(max_batch=64) as s:
            s.add("g", g)
            for wf in (True, False):
                seen, hits = set(), memo_hits(s)
                for srcs in plan:
                    got = s.run("closeness", "g", sources=srcs,
                                wf_improved=wf).value
                    want = repro.closeness_centrality(
                        ref_graph, sources=srcs, wf_improved=wf)
                    assert np.array_equal(got, want)
                    if srcs is not None:
                        off = np.ones(n, dtype=bool)
                        off[srcs] = False
                        assert not got[off].any()
                    asked = set(range(n) if srcs is None else srcs)
                    hits += len(asked & seen)
                    seen |= asked
                    assert memo_hits(s) == hits

    def test_repeats_over_http_and_on_the_batch_span(self, server):
        srv, client, g = server
        records = []
        srv.session.coalescer.on_batch = records.append
        for srcs in ([0, 7, 9], [7, 9, 11]):
            got = client.submit("g", "closeness", sources=srcs)["value"]
            assert np.array_equal(np.asarray(got),
                                  repro.closeness_centrality(g, sources=srcs))
        assert client.stats()["coalescer"]["memo_hits"] == 2
        assert [r["attrs"]["memo_hits"] for r in records] == [0, 2]

    def test_ingest_publishes_a_cold_memo(self, rmat):
        srcs = [0, 3, 9, 200]
        with api.Session() as s:
            s.add("g", rmat)
            before = s.run("closeness", "g", sources=srcs).value
            s.ingest("g", [("add", a, b, 1) for a, b in
                           ((0, 200), (3, 150), (9, 77)) if not rmat.has_edge(a, b)])
            snapshot = s.registry.get("g").graph
            got = s.run("closeness", "g", sources=srcs).value
        want = repro.closeness_centrality(snapshot, sources=srcs)
        assert not np.array_equal(before, want)  # the ingest moved them
        assert np.array_equal(got, want)

    def test_eviction_drops_the_memo(self, rmat):
        import gc
        import weakref

        with api.Session() as s:
            s.add("g", rmat)
            s.run("closeness", "g", sources=[1, 2])
            (memo,) = memo_arrays(s, "g")
            ref = weakref.ref(memo)
            del memo
            s.registry.evict("g")
            gc.collect()
            assert ref() is None

    def test_memo_is_not_persisted(self, rmat):
        import pickle

        with api.Session() as s:
            s.add("g", rmat)
            cold = pickle.dumps(s.state())
            s.run("closeness", "g")
            assert memo_arrays(s, "g")
            assert pickle.dumps(s.state()) == cold

    def test_state_bytes_do_not_depend_on_queries(self):
        """A resident graph's lazy caches stay out of the snapshot: on an
        unchanged graph the state pickles to the same bytes before and
        after a closeness and a ``pla`` query."""
        import pickle

        g = generators.rmat(12, 8, rng=np.random.default_rng(1)).as_undirected()
        with api.Session() as s:
            s.add("g", g)
            cold = pickle.dumps(s.state())
            s.run("closeness", "g", sources=[0, 1, 2, 3])
            s.run("pla", "g")
            assert pickle.dumps(s.state()) == cold

    def test_max_batch_one_runs_every_request(self, rmat, monkeypatch):
        ran = []
        execute = Coalescer._execute

        def counting(self, algo, graph, operands, kwargs, requests):
            ran.append(kwargs["sources"])
            return execute(self, algo, graph, operands, kwargs, requests)

        monkeypatch.setattr(Coalescer, "_execute", counting)
        with api.Session(max_batch=1) as s:
            s.add("g", rmat)
            for _ in range(3):
                got = s.run("closeness", "g", sources=[5, 6]).value
                assert np.array_equal(
                    got, repro.closeness_centrality(rmat, sources=[5, 6]))
            assert ran == [[5, 6]] * 3
            assert memo_hits(s) == 0
            assert s.registry.get("g").closeness == {}

    def test_one_array_per_wf_improved(self, rmat):
        n = rmat.n_vertices
        with api.Session() as s:
            s.add("g", rmat)
            for wf in (True, False):
                s.run("closeness", "g", wf_improved=wf)
            for batch_size in (1, 7, 64):
                s.run("closeness", "g", sources=[1, 2, 3],
                      batch_size=batch_size, wf_improved=batch_size % 2 == 1)
            arrays = memo_arrays(s, "g")
        assert len(arrays) == 2
        assert all(a.dtype == np.float64 and a.shape == (n,) for a in arrays)
        assert not any(np.isnan(a).any() for a in arrays)

    def test_failed_batch_leaves_the_memo_unchanged(self, rmat, monkeypatch):
        execute = Coalescer._execute
        failures = iter([RuntimeError("kernel failed")])

        def flaky(self, *args):
            exc = next(failures, None)
            if exc is not None:
                raise exc
            return execute(self, *args)

        with api.Session() as s:
            s.add("g", rmat)
            s.run("closeness", "g", sources=[1, 2])
            (memo,) = memo_arrays(s, "g")
            before = memo.copy()
            monkeypatch.setattr(Coalescer, "_execute", flaky)
            with pytest.raises(RuntimeError, match="kernel failed"):
                s.run("closeness", "g", sources=[2, 3, 4])
            assert np.array_equal(memo, before, equal_nan=True)
            got = s.run("closeness", "g", sources=[2, 3, 4]).value
            assert memo_hits(s) == 1
        assert np.array_equal(
            got, repro.closeness_centrality(rmat, sources=[2, 3, 4]))

    def test_two_runners_write_one_memo(self, rmat):
        plans = [[i % 5, (i + 1) % 5, 5 + i] for i in range(8)]
        # behind busy runners the eight queue up and leave in batches of
        # at most two, which the two runners take at once
        with api.Session(max_batch=2, max_batch_delay=60.0) as s:
            s.add("g", rmat)
            gate = Gate(s.registry)
            gate.hold(s.coalescer)
            futs = [None] * len(plans)
            submitted = threading.Barrier(len(plans) + 1)

            def client(i):
                futs[i] = s.submit("g", "closeness", sources=plans[i])
                submitted.wait(10)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(plans))]
            for t in threads:
                t.start()
            submitted.wait(10)
            gate.open()
            for t in threads:
                t.join(10)
            got = [f.result(timeout=30) for f in futs]
        for srcs, res in zip(plans, got):
            assert res.extras["serve"]["batch_size"] <= 2
            assert np.array_equal(
                res.value, repro.closeness_centrality(rmat, sources=srcs))

    def test_memo_key_covers_every_closeness_parameter(self):
        params = set(inspect.signature(repro.closeness_centrality).parameters)
        assert params == {"g", "sources", "wf_improved", "batch_size",
                          "ctx"}, (
            "closeness_centrality's parameters changed: a new parameter "
            "must join the coalescer's closeness memo key (wf_improved) "
            "or be shown not to change a source's score")


class TestIngest:
    def test_http_ingest_updates_resident_graph(self, server):
        srv, client, g = server
        before = client.submit("g", "connected_components")["value"]
        doc = client.ingest(
            "g",
            [[1, "add", 0, g.n_vertices - 1], [1, "+", 1, g.n_vertices - 2]],
            analytics=["components", "stats", "degree"],
        )
        assert doc["graph"] == "g"
        assert doc["n_batches_applied"] == 1
        batch = doc["batches"][0]
        assert batch["n_applied"] >= 1
        assert isinstance(batch["checksum"], int)
        # subsequent queries run on the swapped-in snapshot
        after = client.submit("g", "connected_components")["value"]
        assert len(after) == len(before)
        resident = client.graphs()["resident"][0]
        assert resident["source"] == "ingest"
        assert resident["n_edges"] == batch["n_edges"]

    def test_http_ingest_is_incremental_across_calls(self, server):
        _, client, g = server
        a = client.ingest("g", [[1, "add", 0, 2]])
        b = client.ingest("g", [[2, "delete", 0, 2]])
        assert b["n_batches_total"] == a["n_batches_total"] + 1

    def test_http_ingest_structured_errors(self, server):
        _, client, g = server
        with pytest.raises(GraphNotResident):
            client.ingest("missing", [[1, "add", 0, 1]])
        with pytest.raises(ProtocolError):
            client.ingest("g", [[1, "add", 0, g.n_vertices]])  # out of range
        with pytest.raises(ProtocolError):
            client.ingest("g", [[1, "toggle", 0, 1]])
        with pytest.raises(ProtocolError):
            client.ingest("g", [])

    def test_session_ingest_matches_engine(self, rmat):
        from repro.dynamic import EdgeEvent, StreamEngine, group_batches

        events = [
            EdgeEvent("add", 0, 9, t=1),
            EdgeEvent("add", 3, 7, t=1),
            EdgeEvent("delete", 0, 9, t=2),
        ]
        ref = StreamEngine.from_graph(
            rmat, analytics=("components", "stats", "degree"), k=10
        )
        ref_results = [
            ref.apply_batch(b) for b in group_batches(events)
        ]
        with api.Session() as s:
            s.add("g", rmat)
            doc = s.ingest("g", events)
            got = s.registry.get("g").graph
        assert [b["checksum"] for b in doc["batches"]] == [
            r.checksum for r in ref_results
        ]
        assert got.n_edges == ref.n_edges

    def test_unit_weight_ingest_keeps_graph_unweighted(self, rmat):
        """Unit-weight adds into an unweighted resident graph leave it
        unweighted, and closeness on it is the library's on the merged
        graph, bit for bit; the first non-unit weight makes it weighted."""
        from repro.graph import from_edge_array

        new = [(u, v) for u, v in ((0, 9), (3, 7), (5, 200), (11, 12))
               if not rmat.has_edge(u, v)]
        u, v = rmat.edge_endpoints()
        merged = from_edge_array(
            rmat.n_vertices, np.concatenate([u, [a for a, _ in new]]),
            np.concatenate([v, [b for _, b in new]]))
        sources = [0, 3, 9, 200]
        with api.Session() as s:
            s.add("g", rmat)
            s.ingest("g", [("add", a, b, 1) for a, b in new])
            (doc,) = s.registry.stats()["resident"]
            assert doc["weighted"] is False
            assert s.registry.get("g").graph.weights is None
            got = s.run("closeness", "g", sources=sources).value
            assert np.array_equal(
                got, repro.closeness_centrality(merged, sources=sources))
            s.ingest("g", [("add", 1, 250, 2, 2.5)])
            assert s.registry.get("g").graph.is_weighted

    def test_session_engine_keeps_no_history(self, rmat):
        """After 50 ingests the resident graph's engine pickles to the
        size of one seeded from its snapshot; its batch count and every checksum,
        also across a state() restore, are those of one engine fed every
        batch."""
        import pickle

        from repro.dynamic import EdgeEvent, StreamEngine

        n = rmat.n_vertices
        pairs = np.random.default_rng(5).integers(0, n, size=(51, 3, 2))
        batches = [
            [EdgeEvent("add", int(u), int(v), t=t + 1) for u, v in row if u != v]
            for t, row in enumerate(pairs)
        ]
        ref = StreamEngine.from_graph(
            rmat, analytics=("components", "stats", "degree"), k=10
        )
        want = [ref.apply_batch(b).checksum for b in batches]
        got = []
        with api.Session() as s:
            s.add("g", rmat)
            for b in batches[:50]:
                doc = s.ingest("g", b)
                got += [x["checksum"] for x in doc["batches"]]
            engine = s.registry.get("g").engine
            seeded = StreamEngine.from_graph(
                engine.snapshot(), analytics=("components", "stats", "degree"),
                k=10,
            )
            assert (len(pickle.dumps(engine.state()))
                    == len(pickle.dumps(seeded.state())))
            assert doc["n_batches_total"] == 1 + 50
            state = pickle.loads(pickle.dumps(s.state()))
        with api.Session() as s:
            s.restore(state)
            doc = s.ingest("g", batches[50])
            got += [x["checksum"] for x in doc["batches"]]
        assert doc["n_batches_total"] == ref.n_batches
        assert got == want

    def test_session_reloaded_name_starts_from_what_is_resident(self):
        with api.Session() as s:
            s.add("g", from_edge_list(PATH, n_vertices=6))
            s.ingest("g", [("add", 0, 5, 1)])
            s.registry.evict("g")
            s.add("g", from_edge_list([(4, 5)], n_vertices=6))
            s.ingest("g", [("add", 1, 4, 2)])
            assert edge_list(s.registry.get("g").graph) == [(1, 4), (4, 5)]

    def test_evicted_name_drops_its_engine(self):
        """A name's stream engine goes with its resident entry, whether
        the name is evicted by ``registry.evict`` or by LRU admission
        under the session's byte budget."""
        import gc
        import weakref

        from repro.dynamic import StreamEngine

        karate = karate_club()
        for lru in (False, True):
            with api.Session(max_bytes=in_core_nbytes(karate)) as s:
                s.add("g", from_edge_list(PATH, n_vertices=6))
                s.ingest("g", [("add", 0, 5, 1)])
                engines = [weakref.ref(o) for o in gc.get_objects()
                           if isinstance(o, StreamEngine) and o.ctx is s.ctx]
                assert len(engines) == 1
                if lru:
                    s.add("karate", karate)  # only fits alone
                else:
                    s.registry.evict("g")
                assert "g" not in s.registry.names()
                gc.collect()
                assert engines[0]() is None

    def test_http_reloaded_name_starts_from_what_is_resident(self, tmp_path):
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        graph_io.save_npz(from_edge_list(PATH, n_vertices=6), first)
        graph_io.save_npz(from_edge_list([(4, 5)], n_vertices=6), second)
        with ReproServer(ServeConfig(port=0)) as srv:
            srv.start_background()
            with ServeClient(*srv.address) as client:
                client.load(str(first), name="g")
                client.ingest("g", [[1, "add", 0, 5]])
                assert client.evict("g") is True
                client.load(str(second), name="g")
                client.ingest("g", [[2, "add", 1, 4]])
            got = edge_list(srv.session.registry.get("g").graph)
        assert got == [(1, 4), (4, 5)]

    def test_session_ingest_refuses_other_analytics_or_k(self):
        with api.Session() as s:
            s.add("karate", karate_club())
            first = s.ingest(
                "karate", [("add", 0, 9, 1)], analytics=["components"]
            )
            with pytest.raises(ProtocolError,
                               match=r"analytics=\['components'\], k=10"):
                s.ingest("karate", [("add", 0, 14, 2)],
                         analytics=["degree", "closeness"], k=5)
            with pytest.raises(ProtocolError, match="k=10"):
                s.ingest("karate", [("add", 0, 14, 2)], k=5)
            # omitted settings continue with the engine's, and so do
            # equal ones (analytics compared as a set)
            doc = s.ingest("karate", [("add", 0, 14, 2)])
            again = s.ingest("karate", [("add", 0, 15, 3)],
                             analytics=["components", "components"], k=10)
        assert doc["n_batches_total"] == first["n_batches_total"] + 1
        assert again["n_batches_total"] == doc["n_batches_total"] + 1
        for batch in doc["batches"] + again["batches"]:
            assert batch["n_components"] is not None
            assert batch["degree_topk"] is None
            assert batch["closeness_topk"] is None

    def test_http_ingest_refuses_other_analytics_or_k(self, server):
        _, client, _ = server
        first = client.ingest("g", [[1, "add", 0, 2]], analytics=["components"])
        with pytest.raises(ProtocolError, match="analytics=.'components'."):
            client.ingest("g", [[2, "add", 0, 3]],
                          analytics=["degree", "closeness"], k=5)
        with pytest.raises(ProtocolError, match="k=10"):
            client.ingest("g", [[2, "add", 0, 3]], k=5)
        doc = client.ingest("g", [[2, "add", 0, 3]])
        assert doc["n_batches_total"] == first["n_batches_total"] + 1
        assert doc["batches"][0]["degree_topk"] is None

    def test_session_refused_ingest_leaves_nothing_behind(self):
        with api.Session() as s:
            s.add("g", from_edge_list(PATH, n_vertices=6))
            s.ingest("g", [("add", 3, 4, 1)])
            s.registry.pin("g")  # as an in-flight query batch does
            with pytest.raises(AdmissionDenied):
                s.ingest("g", [("add", 0, 5, 2)])
            s.registry.unpin("g")
            doc = s.ingest("g", [("add", 4, 5, 3)])
            got = edge_list(s.registry.get("g").graph)
        assert got == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        assert doc["n_edges"] == len(got)


#: A path on six vertices; 4 and 5 start isolated.
PATH = [(0, 1), (1, 2), (2, 3)]


def edge_list(graph):
    """A graph's canonical ``(u, v)`` edges, sorted."""
    u, v = graph.edge_endpoints()
    return sorted(zip(u.tolist(), v.tolist()))


# ----------------------------------------------------------------------
# Process backend: workers fork before any thread starts
# ----------------------------------------------------------------------
SRC = str(Path(__file__).resolve().parents[1] / "src")
#: A first closeness query and a first ingest, sent at once to a fresh
#: process-backend daemon; the ingest goes to its own graph, so the
#: answers do not depend on which one runs first.
FIRST_SOURCES = [0, 3, 17, 64]
FIRST_EVENTS = [[1, "add", 0, 700], [1, "add", 5, 900], [2, "delete", 0, 700]]
REQUEST_TIMEOUT_S = 30.0


def _first_requests_serially(path):
    """The two first requests' answers on the serial backend."""
    with api.Session() as s:
        s.load(str(path), name="g")
        s.load(str(path), name="s")
        value = s.submit("g", "closeness", sources=FIRST_SOURCES).result().value
        doc = s.ingest("s", [(op, u, v, t) for t, op, u, v in FIRST_EVENTS])
    return [float(x) for x in value], json.loads(json.dumps(doc))


def _shm_names() -> set:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def _first_requests_on_a_fresh_daemon(path) -> dict:
    """Start ``repro serve --backend process --workers 2``, send both
    first requests together, stop it with SIGINT and kill whatever of
    its process group is left; report answers, stop and leaked shm."""
    before = _shm_names()
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--backend", "process", "--workers", "2",
         "--graph", f"g={path}", "--graph", f"s={path}"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, start_new_session=True,
    )
    out = {"closeness": None, "ingest": None, "errors": [], "stopped": False}
    try:
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        for line in proc.stdout:
            found = re.search(r"listening on http://[^:]+:(\d+)", line)
            if found:
                port = int(found.group(1))
                break
        else:
            raise AssertionError("daemon exited before listening")
        watchdog.cancel()

        def closeness():
            with ServeClient(port=port, timeout=REQUEST_TIMEOUT_S) as c:
                out["closeness"] = c.submit(
                    "g", "closeness", sources=FIRST_SOURCES
                )["value"]

        def ingest():
            with ServeClient(port=port, timeout=REQUEST_TIMEOUT_S) as c:
                out["ingest"] = c.ingest("s", FIRST_EVENTS)

        def guarded(fn):
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - reported below
                out["errors"].append(repr(exc))

        threads = [threading.Thread(target=guarded, args=(fn,))
                   for fn in (closeness, ingest)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(2 * REQUEST_TIMEOUT_S)
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
            out["stopped"] = True
        except subprocess.TimeoutExpired:
            pass
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
    leaked = _shm_names() - before
    for name in leaked:  # a killed daemon's segments: never left behind
        os.unlink(f"/dev/shm/{name}")
    out["leaked"] = sorted(leaked)
    return out


class TestProcessBackendStart:
    def test_session_forks_its_workers_before_any_thread(self):
        """Every fork of a serving process-backend ``Session`` happens
        while its process runs one thread, so no worker inherits a lock
        another thread holds."""
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent("""
                import json, os, threading
                forks = []
                os.register_at_fork(
                    before=lambda: forks.append(threading.active_count()))
                import numpy as np
                from repro.api import Session
                from repro.cli_options import ExecutionOptions
                from repro.generators import rmat

                g = rmat(10, 8, rng=np.random.default_rng(5)).as_undirected()
                opts = ExecutionOptions(backend="process", workers=2)
                with Session(options=opts) as s:
                    s.add("g", g)
                    s.add("s", g)
                    fut = s.submit("g", "closeness", sources=[0, 3, 17, 64])
                    s.ingest("s", [("add", 0, 700, 1)])
                    fut.result(timeout=60)
                    fut = s.submit("g", "closeness", sources=[1, 2])
                    fut.result(timeout=60)
                print(json.dumps(forks))
            """)],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # the two workers, forked once, each while one thread ran
        assert json.loads(proc.stdout.splitlines()[-1]) == [1, 1]

    def test_unclosed_default_process_session_unlinks_at_exit(self, tmp_path):
        """A process whose default Session runs the process backend and
        exits without closing it leaves no segment in ``/dev/shm``.  shm
        registers its exit sweep at the first pool, after the default
        session's close, so the sweep runs first and the close after."""
        g = generators.rmat(10, 8, rng=np.random.default_rng(5)).as_undirected()
        path = tmp_path / "g.npz"
        graph_io.save_npz(g, path)
        before = _shm_names()
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(f"""
                import json
                from repro import api
                from repro.cli_options import ExecutionOptions
                from repro.parallel import live_segment_names

                api._DEFAULT = api.Session(
                    options=ExecutionOptions(backend="process", workers=2))
                h = api.load({str(path)!r})
                api.run("closeness", h, sources=[0, 3])
                print(json.dumps(list(live_segment_names())))
            """)],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        names = json.loads(proc.stdout.splitlines()[-1])
        assert len(names) == 1
        assert _shm_names() - before == set()

    def test_alias_ingest_leaves_the_held_batch_its_segment(self):
        """One Graph admitted under two names packs one segment.  An
        ingest into one name while the other name's batch is held leaves
        that batch the Graph's segment: no re-share, no second copy, and
        closing the session unlinks every segment."""
        from repro.parallel import live_segment_names

        g = generators.rmat(10, 8, rng=np.random.default_rng(5)).as_undirected()
        sources = [0, 3, 17, 64]
        opts = ExecutionOptions(backend="process", workers=2)
        with api.Session(options=opts) as s:
            s.add("g", g)
            s.add("s", g)
            assert len(live_segment_names()) == 1
            gate = Gate(s.registry, prefix="g", limit=1)
            fut = s.submit("g", "closeness", sources=sources)
            assert gate.holding.acquire(timeout=10)
            s.ingest("s", [("add", 0, 700, 1)])
            assert len(live_segment_names()) == 2  # g's, and the new snapshot's
            gate.open()
            got = fut.result(timeout=60).value
            # the registry's two admissions; the held batch re-shared nothing
            assert s.ctx.pool.shm_segments == 2
        assert np.array_equal(got, repro.closeness_centrality(g, sources=sources))
        assert live_segment_names() == ()

    def test_first_query_and_first_ingest_together(self, tmp_path):
        """Ten fresh process-backend daemons each answer a concurrent
        first query and first ingest as the serial backend does, stop on
        SIGINT and leave no shared-memory segment behind."""
        g = generators.rmat(10, 8, rng=np.random.default_rng(3)).as_undirected()
        path = tmp_path / "g.npz"
        graph_io.save_npz(g, path)
        expected = _first_requests_serially(path)
        for _ in range(10):
            out = _first_requests_on_a_fresh_daemon(path)
            assert out["errors"] == []
            assert out["stopped"]
            assert out["leaked"] == []
            assert (out["closeness"], out["ingest"]) == expected
