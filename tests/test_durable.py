"""Durability layer: atomic writes, envelopes, record logs, crash resume.

The contract under test (DESIGN §13): every durable artifact is written
atomically (readers never observe a torn file), every checkpoint
envelope detects truncation/bit-flips/wrong-kind loudly as
:class:`~repro.errors.CorruptCheckpoint`, and each of the three
recovery surfaces — sharded BSP coordinator, stream engine, daemon
registry — resumes from its last durable state with **bit-identical**
results.

Tier-1 smokes simulate the crash in-process (an exception thrown
between supersteps / a checkpoint file left mid-stream); the
``crash_full`` matrix SIGKILLs real coordinator subprocesses.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.centrality.closeness import closeness_centrality
from repro.cli import main as cli_main
from repro.community.pla import pla
from repro.datasets.karate import karate_club
from repro.durable import (
    ENVELOPE_MAGIC,
    RecordLog,
    check_log,
    pack_envelope,
    save_state,
    write_json_atomic,
)
from repro.durable.atomic import LOG_FORMAT
from repro.dynamic import (
    EdgeEvent,
    StreamEngine,
    crawl_events,
    group_batches,
    write_events,
)
from repro.errors import (
    AdmissionDenied,
    CorruptCheckpoint,
    ServiceRecovering,
    SnapError,
)
from repro.graph import from_edge_list
from repro.graph import io as graph_io
from repro.kernels.bfs import msbfs
from repro.kernels.connected import connected_components
from repro.parallel.chaos import files_appeared, run_coordinator_killed
from repro.sharded import (
    BSPCheckpointer,
    BSPDriver,
    build_shard_set,
    sharded_closeness,
    sharded_connected_components,
    sharded_msbfs,
    sharded_pla,
)
from repro.sharded.bsp import CHECKPOINT_KIND
from tests.conftest import plant_stream_log, stream_cli

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def karate():
    return karate_club()


def _whole_state_checkpoint(path, state, *, kind, params) -> None:
    """Write ``state`` as the single-envelope ``params/1`` checkpoint
    that record logs replaced: one envelope of the whole state with the
    run's parameters beside it."""
    save_state(path, {"format": "params/1", "params": params, "state": state},
               kind=kind)


# ---------------------------------------------------------------------------
# Atomic writes + the CRC-stamped envelope
# ---------------------------------------------------------------------------
class TestAtomicWrites:
    def test_write_json_atomic_roundtrip(self, tmp_path):
        path = tmp_path / "doc.json"
        doc = {"b": [1, 2, 3], "a": {"nested": True}}
        write_json_atomic(path, doc, sort_keys=True)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == doc
        # the temp file must not survive the replace
        assert list(tmp_path.glob(".doc.json.*")) == []

    def test_replace_overwrites_previous(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_atomic(path, {"v": 1})
        write_json_atomic(path, {"v": 2})
        assert json.loads(path.read_text()) == {"v": 2}

    # The envelope framing, as RecordLog.load / check_log read it: a
    # header envelope holding the log's parameters, then one per record.
    @staticmethod
    def _framed(path, *records, kind="t"):
        """Frame ``records`` by hand into a record log at ``path``; the
        header envelope's bytes end at the returned offset."""
        head = {"format": LOG_FORMAT, "params": {"n": 1}}
        envs = [
            pack_envelope(kind, pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL))
            for r in (head, *records)
        ]
        path.write_bytes(b"".join(envs))
        return len(envs[0])

    @staticmethod
    def _load(path, kind="t"):
        return RecordLog(path, kind=kind, params={"n": 1}).load()

    def test_envelope_roundtrip(self, tmp_path):
        payload = b"\x00\x01payload bytes\xff"
        path = tmp_path / "s.ckpt"
        self._framed(path, payload, kind="unit-test")
        blob = path.read_bytes()
        assert blob.startswith(ENVELOPE_MAGIC)
        assert self._load(path, kind="unit-test") == [payload]
        # RecordLog writes exactly this framing.
        RecordLog(path, kind="unit-test", params={"n": 1}).append(payload)
        assert path.read_bytes() == blob

    def test_kind_mismatch_refused(self, tmp_path):
        path = tmp_path / "s.ckpt"
        self._framed(path, "a")
        with path.open("ab") as f:
            f.write(pack_envelope("alpha", pickle.dumps("b")))
        with pytest.raises(CorruptCheckpoint, match="record 1 has kind 'alpha'"):
            self._load(path)
        assert "kind 'alpha'" in check_log(path)[0]

    @pytest.mark.parametrize("cut", [0, 4, 11, 30, -1])
    def test_truncation_detected(self, tmp_path, cut):
        # Cut inside the header envelope: only a torn *record* is dropped.
        path = tmp_path / "s.ckpt"
        head_end = self._framed(path, list(range(100)))
        blob = path.read_bytes()
        path.write_bytes(blob[:cut if cut >= 0 else head_end + cut])
        with pytest.raises(CorruptCheckpoint, match="truncated|CRC"):
            self._load(path)
        assert check_log(path) != []

    @pytest.mark.parametrize("where", ["magic", "header", "payload"])
    def test_bit_flip_detected(self, tmp_path, where):
        path = tmp_path / "s.ckpt"
        self._framed(path, list(range(100)))
        blob = bytearray(path.read_bytes())
        offset = {"magic": 2, "header": 20, "payload": len(blob) - 5}[where]
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint):
            self._load(path)
        problems = check_log(path)
        assert problems and str(path) in problems[0]

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        self._framed(path, 1)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CorruptCheckpoint, match="bad magic"):
            self._load(path)
        assert "bad magic" in check_log(path)[0]

    def test_non_envelope_file_refused(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"this is not an envelope at all, not even close")
        with pytest.raises(CorruptCheckpoint, match="bad magic"):
            self._load(path)
        assert "bad magic" in check_log(path)[0]

    def test_check_envelope_missing_file(self, tmp_path):
        assert check_log(tmp_path / "absent.ckpt") == [
            f"{tmp_path / 'absent.ckpt'}: missing"
        ]


# ---------------------------------------------------------------------------
# The append-only checkpoint record log
# ---------------------------------------------------------------------------
class TestRecordLog:
    PARAMS = {"n": 5, "srcs": np.arange(3)}

    def _log(self, path, **params):
        return RecordLog(path, kind="unit-log", params={**self.PARAMS, **params})

    def _write(self, path, records) -> list[int]:
        """Append ``records``; returns the file size after each append."""
        log, sizes = self._log(path), []
        for r in records:
            log.append(r)
            sizes.append(path.stat().st_size)
        return sizes

    def test_roundtrip_numpy_bit_identical(self, tmp_path):
        path = tmp_path / "a.ckpt"
        recs = [(i, np.arange(i, dtype=np.int32)) for i in range(4)]
        self._write(path, recs)
        got = self._log(path).load()
        assert [g[0] for g in got] == [0, 1, 2, 3]
        for (_, a), (_, b) in zip(got, recs):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert check_log(path) == []

    def test_missing_log_is_none(self, tmp_path):
        assert self._log(tmp_path / "absent.ckpt").load() is None

    @pytest.mark.parametrize("into", [3, 12, 40, -1])
    def test_torn_final_record_dropped_then_continued(self, tmp_path, into):
        """A crash mid-append (cut inside the magic, the length prefix,
        the header or the payload) loses only that record; the log is
        cut back to its last whole record and appends continue it."""
        path = tmp_path / "a.ckpt"
        sizes = self._write(path, ["a", "b", "c" * 100])
        cut = sizes[1] + into if into > 0 else sizes[2] + into
        path.write_bytes(path.read_bytes()[:cut])
        problems = check_log(path)
        assert len(problems) == 1 and "truncated final record" in problems[0]
        log = self._log(path)
        assert log.load() == ["a", "b"]
        assert path.stat().st_size == sizes[1]
        log.append("d")
        assert self._log(path).load() == ["a", "b", "d"]
        assert check_log(path) == []

    @pytest.mark.parametrize("record", [0, 1])
    def test_non_final_record_bit_flip_raises(self, tmp_path, record):
        path = tmp_path / "a.ckpt"
        sizes = self._write(path, ["a" * 50, "b" * 50, "c" * 50])
        blob = bytearray(path.read_bytes())
        blob[sizes[record] - 3] ^= 0xFF  # inside that record's payload
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint, match="payload CRC") as exc:
            self._log(path).load()
        assert str(path) in str(exc.value)
        assert str(path) in check_log(path)[0]

    def test_final_record_bit_flip_is_not_torn(self, tmp_path):
        path = tmp_path / "a.ckpt"
        self._write(path, ["a", "b" * 50])
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint, match="payload CRC"):
            self._log(path).load()

    def test_single_envelope_checkpoint_refused_by_name(self, tmp_path):
        """A whole-state checkpoint of the same kind and parameters is
        not a log with no records: it is refused, and left in place."""
        path = tmp_path / "a.ckpt"
        _whole_state_checkpoint(path, {"dist": np.zeros(5)}, kind="unit-log",
                                params=self.PARAMS)
        with pytest.raises(CorruptCheckpoint, match="older checkpoint format"):
            self._log(path).load()
        assert "older checkpoint format" in check_log(path)[0]
        assert path.exists()

    def test_parameter_mismatch_refused(self, tmp_path):
        path = tmp_path / "a.ckpt"
        self._write(path, ["a"])
        with pytest.raises(CorruptCheckpoint, match="parameter 'n' mismatch"):
            self._log(path, n=6).load()

    def test_kind_mismatch_refused(self, tmp_path):
        path = tmp_path / "a.ckpt"
        self._write(path, ["a"])
        with pytest.raises(CorruptCheckpoint, match="kind mismatch"):
            RecordLog(path, kind="other", params=self.PARAMS).load()

    def test_unloaded_log_starts_fresh(self, tmp_path):
        path = tmp_path / "a.ckpt"
        self._write(path, ["old", "older"])
        self._write(path, ["new"])
        assert self._log(path).load() == ["new"]

    def test_compact_replaces_the_log_with_one_snapshot(self, tmp_path):
        path = tmp_path / "a.ckpt"
        self._write(path, ["a", "b", "c"])
        log = self._log(path)
        assert log.load() == ["a", "b", "c"]
        log.compact("abc")
        assert self._log(path).load() == ["abc"]
        log.append("d")
        assert self._log(path).load() == ["abc", "d"]
        assert check_log(path) == []
        assert list(tmp_path.glob(".a.ckpt.*")) == []  # no temp file left

    def test_appended_counts_bytes_since_the_last_whole_write(self, tmp_path):
        """``appended`` is what a compaction would fold away: zero after
        the file is written whole, the appends' bytes after that, and
        the same figure when another run loads the log."""
        path = tmp_path / "a.ckpt"
        log = self._log(path)
        log.append("x" * 10)  # creates the file: header + first record
        assert log.appended == 0
        size = path.stat().st_size
        log.append("y" * 10)
        log.append("z" * 10)
        assert log.appended == path.stat().st_size - size
        again = self._log(path)
        again.load()
        assert again.appended == log.appended
        log.compact("xyz")
        assert log.appended == 0


# ---------------------------------------------------------------------------
# Tier-1 guard: no raw JSON writes outside the durability layer
# ---------------------------------------------------------------------------
def test_no_raw_json_writes_in_src():
    """Every JSON artifact written from ``src/`` must go through
    ``repro.durable.write_json_atomic`` (crash atomicity)."""
    offenders = []
    for path in sorted((REPO / "src").rglob("*.py")):
        rel = path.relative_to(REPO)
        if "repro/durable" in str(rel).replace(os.sep, "/"):
            continue  # the one sanctioned implementation site
        text = path.read_text()
        for needle in ("json.dump(", "write_text(json.dumps"):
            if needle in text:
                offenders.append(f"{rel}: {needle}")
    assert not offenders, (
        "raw JSON file writes found — use repro.durable.write_json_atomic "
        f"instead: {offenders}"
    )


#: The durable surfaces, each writing one ``RecordLog``: the BSP
#: driver, ``repro stream --checkpoint-dir`` and the daemon's state log.
_LOG_WRITERS = (
    "src/repro/sharded/bsp.py",
    "src/repro/cli.py",
    "src/repro/serve/server.py",
)


def test_no_raw_state_io_in_src():
    """Every checkpoint and journal in ``src/`` is a ``RecordLog``, so
    the one run-parameter check refuses every foreign resume and one
    torn-tail rule covers every crash mid-append — no surface
    hand-rolls its own format, and only the three durable surfaces open
    a log."""
    offenders = []
    for path in sorted((REPO / "src").rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith("src/repro/durable/"):
            continue
        needles = ["save_state(", "load_state(", "save_checkpoint(",
                   "load_checkpoint(", "Journal(", "replay_journal("]
        if rel not in _LOG_WRITERS:
            needles.append("RecordLog(")
        text = path.read_text()
        offenders += [f"{rel}: {n}" for n in needles if n in text]
    assert not offenders, (
        f"state I/O outside one repro.durable.RecordLog per surface: {offenders}"
    )


def test_one_serving_composition_in_src():
    """A serving stack (registry, coalescer, stream engines) is composed
    in one place, ``repro.api.Session``; the daemon is a session behind
    HTTP and builds no context, registry, coalescer or engine of its
    own.  Likewise the CLI runs its algorithms through ``repro.obs.run``:
    it builds no tracer, and a context only for ``shard run``."""
    from repro import cli

    shard_cmd = inspect.getsource(cli._cmd_shard)
    offenders = []
    for path in sorted((REPO / "src").rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        if rel == "src/repro/api.py":
            continue
        needles = ["GraphRegistry(", "Coalescer(", "StreamEngine.from_graph("]
        text = path.read_text()
        if rel == "src/repro/serve/server.py":
            needles += ["make_context(", "ParallelContext(", "self.engines"]
        if rel == "src/repro/cli.py":
            assert text.count(shard_cmd) == 1
            text = text.replace(shard_cmd, "")
            needles += ["Tracer(", "make_context(", "ParallelContext("]
        offenders += [f"{rel}: {n}" for n in needles if n in text]
    assert not offenders, (
        f"a second serving or run composition: {offenders}"
    )


# ---------------------------------------------------------------------------
# BSP coordinator resume (tier-1, in-process simulated crash)
# ---------------------------------------------------------------------------
class _Boom(RuntimeError):
    """Stand-in for coordinator death between supersteps."""


def _resume_driver(ss, cpdir, every: int = 1) -> BSPDriver:
    return BSPDriver(
        ss, checkpointer=BSPCheckpointer(cpdir, every=every, resume=True)
    )


def _msbfs_log(path, ss, sources, max_depth=None) -> RecordLog:
    """The ``sharded_msbfs`` checkpoint log at ``path``, opened for the
    run parameters the driver writes into its header."""
    return RecordLog(path, kind=CHECKPOINT_KIND, params={
        "tag": "msbfs", "n": ss.n_vertices,
        "srcs": np.asarray(sources, dtype=np.int64), "max_depth": max_depth,
    })


def _crashing_driver(ss, cpdir, *, crash_after: int, every: int = 1) -> BSPDriver:
    """A resume-armed driver whose superstep raises after N calls."""
    drv = _resume_driver(ss, cpdir, every)
    orig = drv.superstep
    calls = {"n": 0}

    def wrapped(*a, **kw):
        if calls["n"] >= crash_after:
            raise _Boom(f"simulated coordinator death at call {calls['n']}")
        calls["n"] += 1
        return orig(*a, **kw)

    drv.superstep = wrapped  # instance attr shadows the method
    return drv


def _recording_driver(drv: BSPDriver) -> tuple[BSPDriver, list]:
    """``drv`` noting, for every superstep it actually runs, the phase
    and a digest of the payloads' arrays — the coordinator state the
    superstep was built from, so a resume that folds its records back
    into anything else shows."""
    orig, ran = drv.superstep, []

    def wrapped(phase, worker, payloads):
        digest = hashlib.sha1()
        for p in payloads:
            for x in p:
                if isinstance(x, np.ndarray):
                    digest.update(x.tobytes())
        ran.append((phase, digest.hexdigest()))
        return orig(phase, worker, payloads)

    drv.superstep = wrapped
    return drv, ran


def _envelope_starts(blob: bytes) -> list[int]:
    """Offsets of the envelopes in a checkpoint log: its header, then
    one per append."""
    return [i for i in range(len(blob)) if blob.startswith(ENVELOPE_MAGIC, i)]


def _slow_components_graph():
    """The path 0 - 39 - 38 - ... - 1: msbfs from 0 takes a level per
    hop.  (Components hooks whole trees and needs only 3 rounds here.)"""
    order = [0, *range(39, 0, -1)]
    return from_edge_list(list(zip(order[:-1], order[1:])), n_vertices=40)


def _permuted_path_graph():
    """A 1 000-vertex path in random vertex order, on which components
    still takes 8 hook rounds (supersteps)."""
    order = np.random.default_rng(0).permutation(1000).tolist()
    return from_edge_list(list(zip(order[:-1], order[1:])), n_vertices=1000)


class TestBSPResume:
    @pytest.fixture()
    def shards(self, karate, tmp_path):
        return build_shard_set(karate, tmp_path / "ss", k=3), tmp_path / "cp"

    def test_msbfs_resume_bit_identical(self, karate, shards):
        ss, cpdir = shards
        sources = [0, 16, 33]
        with pytest.raises(_Boom):
            sharded_msbfs(ss, sources,
                          driver=_crashing_driver(ss, cpdir, crash_after=2))
        assert list(cpdir.glob("*.ckpt")), "crash left no durable checkpoint"
        got = sharded_msbfs(ss, sources, driver=_resume_driver(ss, cpdir))
        ref = msbfs(karate, sources)
        assert got.distances.tobytes() == ref.distances.tobytes()
        assert got.n_levels == ref.n_levels
        assert not list(cpdir.glob("*.ckpt")), "completion must clear ckpts"

    def test_components_resume_bit_identical(self, karate, shards):
        ss, cpdir = shards
        with pytest.raises(_Boom):
            sharded_connected_components(
                ss, driver=_crashing_driver(ss, cpdir, crash_after=1))
        got = sharded_connected_components(
            ss, driver=_resume_driver(ss, cpdir))
        assert np.array_equal(got, connected_components(karate))

    def test_pla_resume_bit_identical(self, karate, shards):
        ss, cpdir = shards
        with pytest.raises(_Boom):
            sharded_pla(ss, driver=_crashing_driver(ss, cpdir, crash_after=4))
        got = sharded_pla(ss, driver=_resume_driver(ss, cpdir))
        ref = pla(karate, multilevel=True)
        assert got.modularity == ref.modularity
        assert np.array_equal(got.labels, ref.labels)
        assert got.extras == ref.extras

    def test_pla_resume_in_refine_bit_identical(self, karate, shards):
        """The last record is a refinement sweep's: its movers are
        relative to the last level-0 record, across the contraction."""
        ss, cpdir = shards
        with pytest.raises(_Boom):
            sharded_pla(ss, driver=_crashing_driver(ss, cpdir, crash_after=16))
        appends = RecordLog(cpdir / "pla.ckpt", kind=CHECKPOINT_KIND, params={
            "tag": "pla", "n": ss.n_vertices, "max_passes": 16,
        }).load()
        assert appends[-1]["records"][-1][0]["phase"] == "refine"
        drv_ref, ran_ref = _recording_driver(BSPDriver(ss))
        sharded_pla(ss, driver=drv_ref)
        drv, ran = _recording_driver(_resume_driver(ss, cpdir))
        got = sharded_pla(ss, driver=drv)
        assert ran == ran_ref[16:]
        ref = pla(karate, multilevel=True)
        assert got.modularity == ref.modularity
        assert np.array_equal(got.labels, ref.labels)
        assert got.extras == ref.extras

    @pytest.mark.parametrize("every", [1, 3])
    def test_pla_resume_at_every_crash_point(self, karate, tmp_path, every):
        """Karate k=3 runs 17 supersteps (strengths, level-0 sweeps,
        refinement sweeps): a crash after any of them resumes to the
        in-core result, re-running a suffix of the uninterrupted run."""
        ss = build_shard_set(karate, tmp_path / "ss", k=3)
        drv_ref, ran_ref = _recording_driver(BSPDriver(ss))
        sharded_pla(ss, driver=drv_ref)
        assert len(ran_ref) == 17
        ref = pla(karate, multilevel=True)
        for crash_after in range(len(ran_ref)):
            cpdir = tmp_path / f"cp{crash_after}"
            with pytest.raises(_Boom):
                sharded_pla(ss, driver=_crashing_driver(
                    ss, cpdir, crash_after=crash_after, every=every))
            drv, ran = _recording_driver(_resume_driver(ss, cpdir, every))
            got = sharded_pla(ss, driver=drv)
            assert ran == ran_ref[len(ran_ref) - len(ran):], crash_after
            assert got.modularity == ref.modularity
            assert np.array_equal(got.labels, ref.labels)
            assert got.extras == ref.extras
            assert not list(cpdir.glob("*.ckpt"))

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("gname", ["karate", "rmat10"])
    @pytest.mark.parametrize("algo", ["msbfs", "closeness"])
    def test_traversal_resume_at_every_crash_point(self, karate, tmp_path,
                                                   algo, gname, every):
        """``sharded_msbfs`` over two lane words and ``sharded_closeness``
        over batches of 20 lanes: a crash after any superstep resumes to
        the in-core result, re-running a suffix of the uninterrupted run
        and clearing every checkpoint."""
        from repro.generators.rmat import rmat

        g = karate if gname == "karate" else rmat(
            10, 8.0, rng=np.random.default_rng(7))
        n = g.n_vertices
        ss = build_shard_set(g, tmp_path / "ss", k=3)
        if algo == "msbfs":
            sources = [(7 * i) % n for i in range(70)]
            ref = msbfs(g, sources).distances.tobytes()

            def run(drv):
                return sharded_msbfs(ss, sources, driver=drv).distances.tobytes()
        else:
            sources = list(range(0, n, max(1, n // 50)))[:50]
            ref = closeness_centrality(g, sources=sources, batch_size=20)
            ref = ref.tobytes()

            def run(drv):
                return sharded_closeness(ss, sources=sources, batch_size=20,
                                         driver=drv).tobytes()

        drv_ref, ran_ref = _recording_driver(BSPDriver(ss))
        assert run(drv_ref) == ref
        for crash_after in range(len(ran_ref)):
            cpdir = tmp_path / f"cp{crash_after}"
            with pytest.raises(_Boom):
                run(_crashing_driver(ss, cpdir, crash_after=crash_after,
                                     every=every))
            drv, ran = _recording_driver(_resume_driver(ss, cpdir, every))
            assert run(drv) == ref, crash_after
            assert ran == ran_ref[len(ran_ref) - len(ran):], crash_after
            assert not list(cpdir.glob("*.ckpt")), crash_after

    def test_closeness_resume_bit_identical(self, karate, shards):
        ss, cpdir = shards
        with pytest.raises(_Boom):
            sharded_closeness(
                ss, driver=_crashing_driver(ss, cpdir, crash_after=5))
        got = sharded_closeness(ss, driver=_resume_driver(ss, cpdir))
        assert got.tobytes() == closeness_centrality(karate).tobytes()
        assert not list(cpdir.glob("*.ckpt"))

    def test_closeness_resume_other_batch_cut_refused(self, karate, shards):
        """Same sources and batch count, another cut: batch 1 of 5 lanes
        is not batch 1 of 6, so resuming would leave scores unwritten."""
        ss, cpdir = shards
        sources = list(range(10))
        drv_ref = BSPDriver(ss)
        sharded_closeness(ss, sources=sources, batch_size=5, driver=drv_ref)
        batch1 = [s.phase for s in drv_ref.stats].index("msbfs:level0", 1)
        with pytest.raises(_Boom):
            sharded_closeness(ss, sources=sources, batch_size=5,
                              driver=_crashing_driver(ss, cpdir,
                                                      crash_after=batch1))
        assert [p.name for p in cpdir.glob("*.ckpt")] == ["closeness.ckpt"]
        with pytest.raises(CorruptCheckpoint,
                           match="parameter 'batch_lanes' mismatch"):
            sharded_closeness(ss, sources=sources, batch_size=6,
                              driver=_resume_driver(ss, cpdir))

    def test_resumed_metrics_cover_precrash_supersteps(self, karate, shards):
        ss, cpdir = shards
        drv1 = _crashing_driver(ss, cpdir, crash_after=3)
        with pytest.raises(_Boom):
            sharded_msbfs(ss, [0, 16, 33], driver=drv1)
        drv2 = _resume_driver(ss, cpdir)
        sharded_msbfs(ss, [0, 16, 33], driver=drv2)
        # cumulative ledger: resumed run's superstep count equals an
        # uninterrupted run's (indices contiguous from 0)
        drv_ref = BSPDriver(ss)
        sharded_msbfs(ss, [0, 16, 33], driver=drv_ref)
        assert [s.index for s in drv2.stats] == [
            s.index for s in drv_ref.stats
        ]

    def test_resume_mismatch_refused(self, karate, shards):
        ss, cpdir = shards
        with pytest.raises(_Boom):
            sharded_msbfs(ss, [0, 16],
                          driver=_crashing_driver(ss, cpdir, crash_after=2))
        with pytest.raises(CorruptCheckpoint, match="mismatch"):
            sharded_msbfs(ss, [0, 33], driver=_resume_driver(ss, cpdir))

    def test_pair_formulation_checkpoint_refused(self, karate, shards):
        """A checkpoint in the layout that predates the run-parameter
        header (here with the pre-word msbfs state, same run parameters)
        is refused by name as an older format, not with a ``KeyError``."""
        ss, cpdir = shards
        srcs = np.array([0, 16], dtype=np.int64)
        n = ss.n_vertices
        save_state(cpdir / "msbfs.ckpt", {
            "tag": "msbfs",
            "state": {
                "n": n, "srcs": srcs, "max_depth": None,
                "dist": np.full((2, n), -1, dtype=np.int32),
                "verts": srcs.copy(), "lanes": np.arange(2, dtype=np.int64),
                "level": 0, "todo_arcs": 2 * ss.n_arcs,
            },
            "driver": {"last_completed": 0, "paged_in": [], "stats": []},
        }, kind="bsp-checkpoint")
        with pytest.raises(CorruptCheckpoint, match="older checkpoint format"):
            sharded_msbfs(ss, srcs, driver=_resume_driver(ss, cpdir))

    def test_whole_state_checkpoint_refused_by_name(self, karate, shards):
        """A ``params/1`` checkpoint — one envelope of the whole msbfs
        state, written for these very run parameters — is refused as an
        older format, never read as a log with no records and silently
        restarted."""
        ss, cpdir = shards
        srcs = np.array([0, 16], dtype=np.int64)
        n = ss.n_vertices
        path = cpdir / "msbfs.ckpt"
        _whole_state_checkpoint(path, {
            "state": {
                "dist": np.full((2, n), -1, dtype=np.int32), "lo": 0,
                "n_levels": 0, "seen": np.zeros(n, dtype=np.uint8),
                "verts": srcs.copy(), "words": np.array([1, 2], np.uint8),
                "level": 0,
            },
            "driver": {"last_completed": 0, "paged_in": [], "stats": []},
        }, kind=CHECKPOINT_KIND,
           params={"tag": "msbfs", "n": n, "srcs": srcs, "max_depth": None})
        with pytest.raises(CorruptCheckpoint,
                           match="older checkpoint format") as exc:
            sharded_msbfs(ss, srcs, driver=_resume_driver(ss, cpdir))
        assert str(path) in str(exc.value)
        assert path.exists()

    def test_torn_final_record_is_rerun(self, karate, shards):
        """A crash mid-append loses that append only: the resume drops
        the torn record, re-runs its superstep and is bit-identical."""
        ss, cpdir = shards
        sources = [0, 16, 33]
        drv_ref, ran_ref = _recording_driver(BSPDriver(ss))
        ref = sharded_msbfs(ss, sources, driver=drv_ref)
        with pytest.raises(_Boom):
            sharded_msbfs(ss, sources,
                          driver=_crashing_driver(ss, cpdir, crash_after=3))
        [ckpt] = cpdir.glob("*.ckpt")
        ckpt.write_bytes(ckpt.read_bytes()[:-5])
        assert "truncated final record" in check_log(ckpt)[0]
        drv, ran = _recording_driver(_resume_driver(ss, cpdir))
        got = sharded_msbfs(ss, sources, driver=drv)
        assert got.distances.tobytes() == ref.distances.tobytes()
        assert got.n_levels == ref.n_levels
        # two of the three pre-crash supersteps are durable; the third,
        # whose record was torn, runs again from the same state
        assert ran == ran_ref[2:]
        assert [(s.index, s.phase) for s in drv.stats] == [
            (s.index, s.phase) for s in drv_ref.stats
        ]
        assert not list(cpdir.glob("*.ckpt"))

    def test_non_final_record_bit_flip_refused(self, karate, shards):
        ss, cpdir = shards
        with pytest.raises(_Boom):
            sharded_msbfs(ss, [0, 16, 33],
                          driver=_crashing_driver(ss, cpdir, crash_after=3))
        [ckpt] = cpdir.glob("*.ckpt")
        blob = bytearray(ckpt.read_bytes())
        starts = _envelope_starts(blob)
        assert len(starts) == 4
        blob[starts[2] - 1] ^= 0xFF  # last byte of the first append
        ckpt.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint, match="payload CRC") as exc:
            sharded_msbfs(ss, [0, 16, 33], driver=_resume_driver(ss, cpdir))
        assert str(ckpt) in str(exc.value)

    @pytest.mark.parametrize("algo", ["msbfs", "components"])
    def test_cadence_three_crash_between_appends(self, tmp_path, algo):
        """``every=3``: a crash two supersteps after an append resumes
        from that append, bit-identically, with a contiguous ledger."""
        g = {"msbfs": _slow_components_graph,
             "components": _permuted_path_graph}[algo]()
        ss = build_shard_set(g, tmp_path / "ss", k=3, method="block")
        cpdir = tmp_path / "cp"
        run = {
            "msbfs": lambda drv: sharded_msbfs(
                ss, [0, 7, 20], driver=drv).distances,
            "components": lambda drv: sharded_connected_components(
                ss, driver=drv),
        }[algo]
        drv_ref, ran_ref = _recording_driver(BSPDriver(ss))
        ref = run(drv_ref)
        assert len(drv_ref.stats) > 6
        with pytest.raises(_Boom):
            run(_crashing_driver(ss, cpdir, crash_after=5, every=3))
        [ckpt] = cpdir.glob("*.ckpt")
        # header + one append (supersteps 0-2); 3-4 were lost
        assert len(_envelope_starts(ckpt.read_bytes())) == 2
        drv, ran = _recording_driver(_resume_driver(ss, cpdir, every=3))
        got = run(drv)
        assert got.tobytes() == ref.tobytes()
        # the folded records rebuild exactly the state superstep 3 ran on
        assert ran == ran_ref[3:]
        assert [s.index for s in drv.stats] == list(range(len(drv_ref.stats)))
        assert [s.phase for s in drv.stats] == [s.phase for s in drv_ref.stats]
        assert not list(cpdir.glob("*.ckpt"))

    def test_msbfs_resume_inside_second_word(self, karate, shards):
        ss, cpdir = shards
        sources = [(7 * i) % karate.n_vertices for i in range(70)]
        drv_ref = BSPDriver(ss)
        ref = sharded_msbfs(ss, sources, driver=drv_ref)
        phases = [s.phase for s in drv_ref.stats]
        second_word = phases.index("msbfs:level0", 1)
        assert 0 < second_word < len(phases) - 2
        with pytest.raises(_Boom):
            sharded_msbfs(ss, sources, driver=_crashing_driver(
                ss, cpdir, crash_after=second_word + 2))
        [ckpt] = cpdir.glob("*.ckpt")
        appends = _msbfs_log(ckpt, ss, sources).load()
        lo, level, _, _ = appends[-1]["records"][-1]
        assert (lo, level) == (64, 2)
        assert ckpt.exists()  # reading the log leaves it in place
        drv = _resume_driver(ss, cpdir)
        got = sharded_msbfs(ss, sources, driver=drv)
        assert got.distances.tobytes() == ref.distances.tobytes()
        assert got.distances.tobytes() == msbfs(karate, sources).distances.tobytes()
        assert got.n_levels == ref.n_levels
        assert [(s.index, s.phase) for s in drv.stats] == [
            (s.index, s.phase) for s in drv_ref.stats
        ]
        assert not list(cpdir.glob("*.ckpt"))

    def test_corrupt_checkpoint_refused_on_resume(self, karate, shards):
        ss, cpdir = shards
        with pytest.raises(_Boom):
            sharded_msbfs(ss, [0, 16],
                          driver=_crashing_driver(ss, cpdir, crash_after=2))
        [ckpt] = cpdir.glob("*.ckpt")
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint):
            sharded_msbfs(ss, [0, 16], driver=_resume_driver(ss, cpdir))

    def test_disarmed_driver_ignores_checkpoints(self, karate, shards):
        ss, cpdir = shards
        with pytest.raises(_Boom):
            sharded_msbfs(ss, [0, 16],
                          driver=_crashing_driver(ss, cpdir, crash_after=2))
        # resume=False: a fresh non-resuming driver starts from scratch
        drv = BSPDriver(
            ss, checkpointer=BSPCheckpointer(cpdir, every=1, resume=False)
        )
        got = sharded_msbfs(ss, [0, 16], driver=drv)
        ref = msbfs(karate, [0, 16])
        assert got.distances.tobytes() == ref.distances.tobytes()


def test_msbfs_log_never_outgrows_one_distance_plane(tmp_path):
    """Every-1 checkpointing appends what each level claimed, not the
    state: over a 16-source traversal of R-MAT scale 11 the log never
    holds more bytes than one ``(K, n)`` int32 distance plane."""
    from repro.generators.rmat import rmat

    g = rmat(11, 8.0, rng=np.random.default_rng(11))
    ss = build_shard_set(g, tmp_path / "ss", k=4)
    sources = np.random.default_rng(3).choice(g.n_vertices, 16, replace=False)
    drv = BSPDriver(ss, checkpointer=BSPCheckpointer(tmp_path / "cp", every=1))
    path = drv.checkpointer.path_for("msbfs")
    orig, sizes = drv.maybe_checkpoint, []

    def spy(tag, record, **kw):
        wrote = orig(tag, record, **kw)
        sizes.append(path.stat().st_size)
        return wrote

    drv.maybe_checkpoint = spy
    got = sharded_msbfs(ss, sources, driver=drv)
    assert np.array_equal(got.distances, msbfs(g, sources).distances)
    assert len(sizes) >= 3
    assert max(sizes) <= got.distances.nbytes
    assert not path.exists()


class TestShardRunResume:
    """``repro shard run``'s run-level checkpoint is the driver tag
    ``run``: completed algorithms are skipped on ``--resume``."""

    def test_resume_skips_completed_algorithm(self, karate, tmp_path,
                                              monkeypatch, capsys):
        import repro.sharded

        root = tmp_path / "ss"
        build_shard_set(karate, root, k=3)
        cpdir = tmp_path / "cp"

        def run(algos, *extra):
            return cli_main(["shard", "run", str(root), "--algo", algos,
                             "--sources", "0,5,33", *extra])

        def metrics(path):
            doc = json.loads(path.read_text())
            del doc["metrics"]["peak_rss_bytes"]
            return _strip_seconds(doc)

        ckpt = ("--checkpoint-every", "1", "--checkpoint-dir", str(cpdir))
        assert run("msbfs,components", "--metrics", str(tmp_path / "ref.json")) == 0

        def boom(*a, **kw):
            raise _Boom("simulated coordinator death in components")

        monkeypatch.setattr(repro.sharded, "sharded_connected_components", boom)
        with pytest.raises(_Boom):
            run("msbfs,components", *ckpt)
        monkeypatch.undo()
        assert [p.name for p in cpdir.iterdir()] == ["run.ckpt"]

        capsys.readouterr()
        assert run("msbfs,closeness", *ckpt, "--resume") == 1
        assert "parameter 'algos' mismatch" in capsys.readouterr().err

        got = tmp_path / "got.json"
        assert run("msbfs,components", *ckpt, "--resume", "--metrics", str(got)) == 0
        assert "msbfs already complete" in capsys.readouterr().out
        assert metrics(got) == metrics(tmp_path / "ref.json")
        assert list(cpdir.iterdir()) == []

        # The pre-header run-level checkpoint layout is refused by name.
        save_state(cpdir / "run.ckpt", {"fingerprint": {}, "completed": {}},
                   kind="shard-run")
        assert run("msbfs,components", *ckpt, "--resume") == 1
        assert "kind mismatch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Stream engine durability (tier-1)
# ---------------------------------------------------------------------------
class TestStreamDurability:
    """``repro stream --checkpoint-dir`` logs each batch it applies and,
    rerun on the same input, re-applies the log and continues."""

    def test_save_load_mid_stream_bit_identical(self, karate, tmp_path,
                                                monkeypatch):
        evs = crawl_events(
            karate, policy="mod", batch_size=6,
            rng=np.random.default_rng(1),
        )
        batches = list(group_batches(evs))
        cut = len(batches) // 2
        full = StreamEngine(karate.n_vertices, k=5)
        want = [full.apply_batch(b).checksum for b in batches]

        path = tmp_path / "mod.events"
        write_events(path, evs, n_vertices=karate.n_vertices)
        ckpt_dir = tmp_path / "ck"
        ckpt_dir.mkdir()
        plant_stream_log(ckpt_dir / "stream.ckpt", batches[:cut],
                         n_vertices=karate.n_vertices, k=5)
        _, rows = stream_cli(monkeypatch,
                             [path, "-k", 5, "--checkpoint-dir", ckpt_dir])
        assert [r["checksum"] for r in rows] == want

    def test_corrupt_stream_checkpoint_refused(self, karate, tmp_path,
                                               capsys):
        batches = [[EdgeEvent("add", u, v, t=t)]
                   for t, (u, v) in enumerate([(0, 1), (1, 2), (2, 3)])]
        path = tmp_path / "three.events"
        write_events(path, [e for b in batches for e in b],
                     n_vertices=karate.n_vertices)
        ckpt = tmp_path / "ck" / "stream.ckpt"
        ckpt.parent.mkdir()
        plant_stream_log(ckpt, batches, n_vertices=karate.n_vertices)
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        assert cli_main(["stream", str(path),
                         "--checkpoint-dir", str(ckpt.parent)]) == 1
        assert f"error: corrupt checkpoint {ckpt}" in capsys.readouterr().err

    @pytest.fixture()
    def events_file(self, karate, tmp_path):
        evs = crawl_events(
            karate, policy="bfs", batch_size=8,
            rng=np.random.default_rng(0),
        )
        path = tmp_path / "karate.events"
        write_events(path, evs, n_vertices=karate.n_vertices)
        return path, list(group_batches(evs)), karate.n_vertices

    def test_cli_resume_output_bit_identical(self, events_file, tmp_path):
        path, batches, n = events_file
        out_full = tmp_path / "full.json"
        assert cli_main(["stream", str(path), "-o", str(out_full)]) == 0

        # Simulate a crash mid-run: a checkpoint holding the first few
        # completed batches (what --checkpoint-dir leaves behind when
        # the process dies during the next batch).
        ckpt_dir = tmp_path / "ck"
        ckpt_dir.mkdir()
        # CLI defaults: components,stats,degree k=10
        log = plant_stream_log(ckpt_dir / "stream.ckpt",
                               batches[: len(batches) // 2], n_vertices=n)

        out_resumed = tmp_path / "resumed.json"
        assert cli_main(["stream", str(path),
                         "--checkpoint-dir", str(ckpt_dir),
                         "-o", str(out_resumed)]) == 0
        assert out_resumed.read_bytes() == out_full.read_bytes()
        # the log holds each input batch once, the replayed ones included
        assert log.load() == [
            [(e.kind, e.u, e.v, e.t, e.weight) for e in b] for b in batches
        ]

    @pytest.mark.parametrize("name, value", [
        pytest.param(name, value, id=name) for name, value in (
            ("k", 5), ("resweep_passes", 1),
        )
    ])
    def test_cli_resume_config_mismatch_refused(self, events_file, tmp_path,
                                                capsys, name, value):
        """Every engine setting is checked — ``resweep_passes`` changes
        the community output but is not a CLI flag."""
        path, batches, n = events_file
        ckpt_dir = tmp_path / "ck"
        ckpt_dir.mkdir()
        analytics = ("components", "community")
        plant_stream_log(ckpt_dir / "stream.ckpt", batches[:2], n_vertices=n,
                         **{"analytics": analytics, "k": 10,
                            name: value})  # the CLI's but one
        assert cli_main(["stream", str(path), "--analytics", ",".join(analytics),
                         "--checkpoint-dir", str(ckpt_dir)]) == 1
        assert f"parameter '{name}' mismatch" in capsys.readouterr().err
    def test_cli_resume_log_with_window_refused(self, events_file, tmp_path,
                                                capsys):
        """A log written while the engine still had a burst ``window``,
        or a ``community_escalate`` switch, carries it in its params, so
        it is refused by that name."""
        path, batches, n = events_file
        for name, value in (("window", 1024), ("community_escalate", True)):
            ckpt_dir = tmp_path / name
            ckpt_dir.mkdir()
            params = {**StreamEngine(n)._config(), name: value}
            RecordLog(ckpt_dir / "stream.ckpt", kind="stream-checkpoint",
                      params=params).append(
                          [(e.kind, e.u, e.v, e.t, e.weight) for e in batches[0]])
            assert cli_main(["stream", str(path),
                             "--checkpoint-dir", str(ckpt_dir)]) == 1
            assert f"parameter '{name}' mismatch" in capsys.readouterr().err

    def test_cli_resume_older_format_refused(self, events_file, tmp_path,
                                             capsys):
        """A checkpoint in the layout that predates the run-parameter
        header is refused by name, not replayed or hit as a KeyError."""
        path, _, n = events_file
        ckpt_dir = tmp_path / "ck"
        ckpt_dir.mkdir()
        save_state(ckpt_dir / "stream.ckpt", {
            "version": 1, "n_vertices": n,
            "analytics": ["components", "stats", "degree"], "k": 10,
            "window": 1024, "resweep_passes": 16, "resweep_radius": 1,
            "community_escalate": True, "batches": [],
        }, kind="stream-checkpoint")
        assert cli_main(["stream", str(path),
                         "--checkpoint-dir", str(ckpt_dir)]) == 1
        assert "older checkpoint format" in capsys.readouterr().err

    def test_cli_resume_foreign_stream_refused(self, events_file, tmp_path,
                                               capsys):
        path, _, n = events_file
        ckpt_dir = tmp_path / "ck"
        ckpt_dir.mkdir()
        plant_stream_log(ckpt_dir / "stream.ckpt",
                         [[EdgeEvent("add", 0, 1, t=0)]], n_vertices=n)
        assert cli_main(["stream", str(path),
                         "--checkpoint-dir", str(ckpt_dir)]) == 1
        assert "not a prefix" in capsys.readouterr().err

    def test_cli_resume_whole_state_checkpoint_refused(self, events_file,
                                                       tmp_path, capsys):
        """A ``params/1`` stream checkpoint — the whole applied-batch
        list in one envelope, for this very config — is refused by name,
        never read as a log with no records and silently restarted."""
        path, batches, n = events_file
        ckpt = tmp_path / "ck" / "stream.ckpt"
        ckpt.parent.mkdir()
        _whole_state_checkpoint(ckpt, [
            [(e.kind, e.u, e.v, e.t, e.weight) for e in batches[0]],
        ], kind="stream-checkpoint", params=StreamEngine(n)._config())
        assert cli_main(["stream", str(path),
                         "--checkpoint-dir", str(ckpt.parent)]) == 1
        err = capsys.readouterr().err
        assert "older checkpoint format" in err and str(ckpt) in err

    def test_cli_resume_after_torn_append(self, events_file, tmp_path):
        """A crash mid-append leaves a torn final record: the resume
        drops it, re-applies that batch and the output is unchanged."""
        path, batches, n = events_file
        out_full = tmp_path / "full.json"
        assert cli_main(["stream", str(path), "-o", str(out_full)]) == 0
        ckpt = tmp_path / "ck" / "stream.ckpt"
        ckpt.parent.mkdir()
        plant_stream_log(ckpt, batches[:3], n_vertices=n)
        ckpt.write_bytes(ckpt.read_bytes()[:-9])
        assert "truncated final record" in check_log(ckpt)[0]
        out = tmp_path / "resumed.json"
        assert cli_main(["stream", str(path), "--checkpoint-dir",
                         str(ckpt.parent), "-o", str(out)]) == 0
        assert out.read_bytes() == out_full.read_bytes()

    def test_save_appends_one_batch_at_a_time(self, tmp_path, monkeypatch):
        """The log gets each batch alone, right after it applies: over
        256 equal-shaped batches the i-th append adds the same bytes for
        every i (up to the decimal width of the envelope's CRC), where
        rewriting the history grew linearly."""
        batches = [[EdgeEvent("add", t, (t + 1) % 256, t=t)]
                   for t in range(256)]
        path = tmp_path / "ring.events"
        write_events(path, [e for b in batches for e in b], n_vertices=256)
        ckpt = tmp_path / "ck" / "stream.ckpt"
        sizes = []
        append = RecordLog.append

        def sized(log, record):
            append(log, record)
            sizes.append(log.path.stat().st_size)

        monkeypatch.setattr(RecordLog, "append", sized)
        out = tmp_path / "out.json"
        assert cli_main(["stream", str(path), "--checkpoint-dir",
                         str(ckpt.parent), "-o", str(out)]) == 0
        monkeypatch.undo()
        assert len(sizes) == 256
        added = np.diff(sizes)
        assert added.max() - added.min() < 10
        log = RecordLog(ckpt, kind="stream-checkpoint",
                        params=StreamEngine(256)._config())
        assert log.load() == [
            [(e.kind, e.u, e.v, e.t, e.weight) for e in b] for b in batches
        ]
        # a rerun replays all 256 and lands on the same document
        again = tmp_path / "again.json"
        assert cli_main(["stream", str(path), "--checkpoint-dir",
                         str(ckpt.parent), "-o", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_closed_stdout_stops_without_traceback(self, tmp_path):
        """``repro stream ... | head -1``: the reader closes stdout after
        the first line, so the CLI exits non-zero with nothing on stderr,
        and its log holds an exact prefix of the input batches.  The
        output (~190 kB) outgrows the pipe, so the write must fail."""
        batches = [[EdgeEvent("add", t % 512, (7 * t + 1) % 512, t=t)]
                   for t in range(2000)]
        path = tmp_path / "many.events"
        write_events(path, [e for b in batches for e in b], n_vertices=512)
        ckpt = tmp_path / "ck"
        proc = subprocess.Popen(
            _cli_argv("stream", str(path), "--checkpoint-dir", str(ckpt)),
            env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"stream:")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) != 0
        assert err == ""
        log = RecordLog(ckpt / "stream.ckpt", kind="stream-checkpoint",
                        params=StreamEngine(512)._config())
        records = log.load()
        assert 0 < len(records) < len(batches)
        assert records == [[(e.kind, e.u, e.v, e.t, e.weight) for e in b]
                           for b in batches[:len(records)]]

    def test_engine_state_resumes_bit_identical(self, karate):
        """What the daemon snapshots: an engine rebuilt from a pickled
        :meth:`StreamEngine.state` at any batch carries the uninterrupted
        engine's checksums on every later batch, with every analytic on
        and deletions in the stream."""
        import pickle

        batches = list(group_batches(crawl_events(
            karate, policy="mod", batch_size=5, rng=np.random.default_rng(1))))
        t = batches[-1][0].t
        u, v = karate.edge_endpoints()
        for i, j in enumerate(np.random.default_rng(3).integers(len(u), size=6)):
            batches.append([EdgeEvent("delete", int(u[j]), int(v[j]), t=t + 1 + i),
                            EdgeEvent("add", 0, int(v[j]), t=t + 1 + i)])
        analytics = ("components", "stats", "degree", "closeness", "community")
        full = StreamEngine(karate.n_vertices, analytics=analytics, k=5)
        want = [full.apply_batch(b).checksum for b in batches]
        for cut in (1, len(batches) // 2, len(batches) - 3):
            part = StreamEngine(karate.n_vertices, analytics=analytics, k=5)
            for b in batches[:cut]:
                part.apply_batch(b)
            back = StreamEngine.from_state(pickle.loads(pickle.dumps(part.state())))
            got = [back.apply_batch(b).checksum for b in batches[cut:]]
            assert got == want[cut:]
            assert back.n_batches == full.n_batches


# ---------------------------------------------------------------------------
# Restart-safe daemon (tier-1)
# ---------------------------------------------------------------------------
def _edges(graph):
    u, v = graph.edge_endpoints()
    return sorted(zip(u.tolist(), v.tolist()))


def _daemon(state_dir):
    from repro.serve.server import ReproServer, ServeConfig

    return ReproServer(ServeConfig(
        port=0, max_batch_delay=0.01, state_dir=str(state_dir)
    ))


def _state_log(state_dir) -> RecordLog:
    from repro.serve.server import STATE_LOG_KIND, STATE_LOG_NAME, STATE_LOG_PARAMS

    return RecordLog(state_dir / STATE_LOG_NAME, kind=STATE_LOG_KIND,
                     params=STATE_LOG_PARAMS)


def _ingest(srv, name, rows, analytics=None):
    from repro.serve import protocol

    doc = {"graph": name, "events": rows}
    if analytics is not None:
        doc["analytics"] = list(analytics)
    return srv.ingest(protocol.parse_ingest(doc))


class TestJournal:
    """The daemon's state journal is a ``RecordLog`` (``state.log``):
    one record per applied load / evict / ingest, after at most one
    snapshot, under the log's one torn-tail rule."""

    @pytest.fixture()
    def gpath(self, karate, tmp_path):
        path = tmp_path / "karate.txt"
        graph_io.write_edge_list(karate, str(path))
        return path

    def _ops(self, state):
        return [(r["op"], r.get("name")) for r in _state_log(state).load()]

    def _write(self, state, gpath, ops):
        with _daemon(state) as srv:
            srv.recover()
            for op, name in ops:
                if op == "load":
                    srv.load(str(gpath), name=name)
                else:
                    srv.evict(name)

    def test_roundtrip(self, tmp_path, gpath):
        state = tmp_path / "state"
        ops = [("load", "a"), ("load", "b"), ("evict", "a")]
        self._write(state, gpath, ops)
        assert self._ops(state) == ops
        assert check_log(state / "state.log") == []

    def test_append_survives_reopen(self, tmp_path, gpath):
        state = tmp_path / "state"
        self._write(state, gpath, [("load", "a")])
        self._write(state, gpath, [("load", "b")])
        assert self._ops(state) == [("load", "a"), ("load", "b")]
        with _daemon(state) as srv:
            assert srv.recover()["loads"] == 2
            assert srv.session.registry.names() == ["a", "b"]

    def test_torn_final_line_dropped(self, tmp_path, gpath):
        state = tmp_path / "state"
        self._write(state, gpath, [("load", "a"), ("load", "b")])
        log = state / "state.log"
        log.write_bytes(log.read_bytes()[:-7])  # crash mid-append: torn tail
        with _daemon(state) as srv:
            assert srv.recover()["loads"] == 1
            assert srv.session.registry.names() == ["a"]
        assert check_log(log) == []

    def test_mid_file_corruption_raises(self, tmp_path, gpath):
        state = tmp_path / "state"
        self._write(state, gpath, [("load", "a"), ("load", "b"), ("evict", "a")])
        log = state / "state.log"
        blob = bytearray(log.read_bytes())
        blob[_envelope_starts(blob)[2] - 2] ^= 0xFF  # inside the first record
        log.write_bytes(bytes(blob))
        with _daemon(state) as srv:
            with pytest.raises(CorruptCheckpoint, match="payload CRC") as exc:
                srv.recover()
            assert str(log) in str(exc.value)
            # nothing may append over the damaged log
            assert srv.recovering
            with pytest.raises(ServiceRecovering):
                srv.load(str(gpath), name="c")
        assert log.read_bytes() == bytes(blob)

    def test_final_line_bit_flip_is_not_torn(self, tmp_path, gpath):
        state = tmp_path / "state"
        self._write(state, gpath, [("load", "a")])
        log = state / "state.log"
        blob = bytearray(log.read_bytes())
        blob[-3] ^= 0xFF
        log.write_bytes(bytes(blob))
        with _daemon(state) as srv, pytest.raises(CorruptCheckpoint):
            srv.recover()

    def test_missing_file_is_empty(self, tmp_path):
        state = tmp_path / "state"
        with _daemon(state) as srv:
            assert srv.recover() == {
                "loads": 0, "evicts": 0, "ingests": 0, "skipped": 0
            }
        assert list(state.iterdir()) == []


class TestServeDurability:
    def _mk(self, state_dir):
        return _daemon(state_dir)

    def _client(self, srv):
        from repro.serve.client import ServeClient

        host, port = srv.address
        return ServeClient(host, port)

    def test_recovering_envelope_until_replayed(self, tmp_path):
        with self._mk(tmp_path / "state") as srv:
            srv.start_background()
            client = self._client(srv)
            # health stays answerable and reports the flag
            doc = client.health()
            assert doc["ok"] is True and doc["recovering"] is True
            # data-plane routes answer 503/recovering
            with pytest.raises(ServiceRecovering):
                client.graphs()
            with pytest.raises(ServiceRecovering):
                client.submit("g", "bfs", source=0)
            srv.recover()
            assert client.health()["recovering"] is False
            assert client.graphs()["resident"] == []

    def test_restart_readmits_loads_and_ingests(self, karate, tmp_path):
        state = tmp_path / "state"
        gpath = tmp_path / "karate.txt"
        graph_io.write_edge_list(karate, str(gpath))

        with self._mk(state) as srv:
            srv.start_background()
            srv.recover()
            client = self._client(srv)
            client.load(str(gpath), name="k")
            doc = client.ingest("k", [[1, "add", 0, 33], [1, "add", 2, 30]])
            n_edges_after = doc["batches"][-1]["n_edges"]
            before = client.submit("k", "connected_components")["value"]

        with self._mk(state) as srv2:
            srv2.start_background()
            summary = srv2.recover()
            assert summary["loads"] == 1 and summary["ingests"] == 1
            client2 = self._client(srv2)
            resident = client2.graphs()["resident"]
            assert [e["name"] for e in resident] == ["k"]
            assert resident[0]["n_edges"] == n_edges_after
            after = client2.submit("k", "connected_components")["value"]
            assert after == before

    def test_restart_respects_evictions(self, karate, tmp_path):
        state = tmp_path / "state"
        gpath = tmp_path / "karate.txt"
        graph_io.write_edge_list(karate, str(gpath))
        with self._mk(state) as srv:
            srv.start_background()
            srv.recover()
            client = self._client(srv)
            client.load(str(gpath), name="a")
            client.load(str(gpath), name="b")
            client.evict("a")
        with self._mk(state) as srv2:
            srv2.start_background()
            summary = srv2.recover()
            assert summary == {
                "loads": 2, "evicts": 1, "ingests": 0, "skipped": 0
            }
            assert self._client(srv2).graphs()["resident"][0]["name"] == "b"

    def test_refused_ingest_is_neither_served_nor_replayed(self, karate,
                                                           tmp_path):
        state = tmp_path / "state"
        gpath = tmp_path / "g.npz"
        # karate's CSR outweighs three ingest records: no compaction, so
        # the replay below reads the ingests themselves
        graph_io.save_npz(karate, gpath)
        added, refused = [(0, 33), (4, 33)], (2, 33)
        assert not {*added, refused} & set(_edges(karate))
        with self._mk(state) as srv:
            srv.start_background()
            srv.recover()
            client = self._client(srv)
            client.load(str(gpath), name="g")
            client.ingest("g", [[1, "add", *added[0]]])
            srv.session.registry.pin("g")  # as an in-flight query batch does
            with pytest.raises(AdmissionDenied):
                client.ingest("g", [[2, "add", *refused]])
            srv.session.registry.unpin("g")
            client.ingest("g", [[3, "add", *added[1]]])
            served = _edges(srv.session.registry.get("g").graph)
        assert served == sorted(set(_edges(karate)) | set(added))
        with self._mk(state) as srv2:
            assert srv2.recover()["ingests"] == 2
            assert _edges(srv2.session.registry.get("g").graph) == served

    def test_vanished_source_skipped_not_fatal(self, karate, tmp_path):
        state = tmp_path / "state"
        gpath = tmp_path / "karate.txt"
        graph_io.write_edge_list(karate, str(gpath))
        with self._mk(state) as srv:
            srv.start_background()
            srv.recover()
            self._client(srv).load(str(gpath), name="k")
        gpath.unlink()
        with self._mk(state) as srv2:
            srv2.start_background()
            summary = srv2.recover()
            assert summary["skipped"] == 1 and summary["loads"] == 0
            assert self._client(srv2).graphs()["resident"] == []

    def test_recovery_writes_nothing_and_its_tail_counts(self, karate,
                                                         tmp_path):
        """A restart leaves the log byte-identical, and the tail it
        replayed still counts toward the next compaction, so replay
        stays bounded across restarts."""
        state = tmp_path / "state"
        gpath = tmp_path / "karate.txt"
        graph_io.write_edge_list(karate, str(gpath))
        with self._mk(state) as srv:
            srv.recover()
            srv.load(str(gpath), name="k")
            for t in range(3):
                _ingest(srv, "k", [[t, "add" if t % 2 == 0 else "delete",
                                    0, 33]])
            appended = srv.state_log.appended
        blob = (state / "state.log").read_bytes()
        with self._mk(state) as srv2:
            assert srv2.recover()["ingests"] == 3
            assert srv2.state_log.appended == appended > 0
        assert (state / "state.log").read_bytes() == blob

    def test_skipped_operation_is_never_compacted_away(self, karate,
                                                       tmp_path):
        """A load skipped at recovery (its source is gone for now) stays
        in the log however much is appended after it, so a later boot
        re-admits the graph once the file is back."""
        state = tmp_path / "state"
        gone, kept = tmp_path / "gone.txt", tmp_path / "kept.txt"
        graph_io.write_edge_list(karate, str(gone))
        graph_io.write_edge_list(karate, str(kept))
        with self._mk(state) as srv:
            srv.recover()
            srv.load(str(gone), name="a")
            srv.load(str(kept), name="b")
        moved = gone.rename(tmp_path / "away.txt")
        with self._mk(state) as srv2:
            assert srv2.recover()["skipped"] == 1
            for t in range(40):  # far past b's CSR bytes
                _ingest(srv2, "b", [[t, "add" if t % 2 == 0 else "delete",
                                     0, 33]])
        assert "snapshot" not in [r["op"] for r in _state_log(state).load()]
        moved.rename(gone)
        with self._mk(state) as srv3:
            assert srv3.recover()["skipped"] == 0
            assert srv3.session.registry.names() == ["a", "b"]

    def test_state_log_of_another_snapshot_layout_refused(self, tmp_path):
        """The state log's params name its snapshot layout, so a log
        written for another one is refused by name, never restored."""
        state = tmp_path / "state"
        state.mkdir()
        from repro.serve.server import STATE_LOG_KIND

        # /1 engines still carried a DynamicGraph beside their snapshot,
        # /2 ones a StreamingStats and an edge set, /3 ones a batch count
        # split between a history and the batches restored
        for older in ("session-state/0", "session-state/1", "session-state/2",
                      "session-state/3"):
            (state / "state.log").unlink(missing_ok=True)
            RecordLog(state / "state.log", kind=STATE_LOG_KIND,
                      params={"snapshot": older}).append(
                          {"op": "snapshot", "graphs": []})
            with self._mk(state) as srv:
                with pytest.raises(CorruptCheckpoint,
                                   match="parameter 'snapshot' mismatch"):
                    srv.recover()
                assert srv.recovering

    def test_old_registry_journal_refused_by_name(self, tmp_path):
        """The JSON-lines journal the state log replaced is refused by
        name, never replayed as an empty state."""
        state = tmp_path / "state"
        state.mkdir()
        old = state / "registry.journal"
        old.write_text('0badc0de {"op":"load","path":"g.txt","name":"g"}\n')
        with self._mk(state) as srv:
            with pytest.raises(CorruptCheckpoint, match="older format") as exc:
                srv.recover()
            assert str(old) in str(exc.value)
            assert srv.recovering
        assert old.exists() and not (state / "state.log").exists()

    def test_compaction_bounds_the_log_and_resumes_bit_identical(
        self, karate, tmp_path
    ):
        """Steady ingest compacts the log whenever the bytes since the
        last snapshot pass the resident CSR bytes, so it holds one
        snapshot and a bounded tail.  A daemon restarted from it serves
        the same graph, and its stream engine — restored from the
        snapshot, with every analytic on — answers the next ingest with
        the checksums a daemon that never stopped gives."""
        state = tmp_path / "state"
        gpath = tmp_path / "karate.txt"
        graph_io.write_edge_list(karate, str(gpath))
        analytics = ["components", "stats", "degree", "closeness", "community"]
        rng = np.random.default_rng(5)
        rows = [[t, "delete" if t % 3 == 2 else "add", int(u), int(v)]
                for t, (u, v) in enumerate(rng.integers(34, size=(60, 2)))
                if u != v]
        with self._mk(state) as srv, self._mk(tmp_path / "ref") as ref:
            for d in (srv, ref):
                d.recover()
                d.load(str(gpath), name="k")
            for row in rows[:-4]:
                _ingest(srv, "k", [row], analytics)
                _ingest(ref, "k", [row], analytics)
            resident = srv.session.registry.resident_bytes
            want = [_ingest(ref, "k", [row], analytics) for row in rows[-4:]]
        assert any(row[1] == "delete" for row in rows[-4:])
        ops = [r["op"] for r in _state_log(state).load()]
        assert ops[0] == "snapshot" and "snapshot" not in ops[1:]
        assert srv.state_log.appended <= resident
        with self._mk(state) as srv2:
            assert srv2.recover()["loads"] == 1
            assert [_ingest(srv2, "k", [row], analytics)
                    for row in rows[-4:]] == want


def test_concurrent_state_changes_log_in_apply_order(karate, tmp_path):
    """Threads loading, evicting and ingesting at once, with compactions
    in between: the log order is the apply order, so a restarted daemon
    holds exactly the graphs the live one served."""
    import threading

    gpath = tmp_path / "karate.txt"
    graph_io.write_edge_list(karate, str(gpath))
    state = tmp_path / "state"
    errors = []

    def worker(i, srv):
        try:
            name = f"g{i % 3}"
            for t in range(30):
                if t % 10 == 0:
                    srv.load(str(gpath), name=name)
                u, v = (i + t) % 34, (i * 7 + 3 * t + 1) % 34
                if u != v:
                    try:
                        _ingest(srv, name, [[t, "add" if t % 4 else "delete",
                                             u, v]])
                    except SnapError:
                        pass  # a concurrent evict: the name is gone
                if t % 13 == 5:
                    srv.evict(name)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _daemon(state) as srv:
            srv.recover()
            threads = [threading.Thread(target=worker, args=(i, srv))
                       for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in threads)
            served = {n: _edges(srv.session.registry.get(n).graph)
                      for n in srv.session.registry.names()}
    finally:
        sys.setswitchinterval(switch)
    assert not errors, errors
    assert served
    with _daemon(state) as srv2:
        srv2.recover()
        assert {n: _edges(srv2.session.registry.get(n).graph)
                for n in srv2.session.registry.names()} == served


# ---------------------------------------------------------------------------
# crash_full: real SIGKILLed coordinators (excluded from tier-1)
# ---------------------------------------------------------------------------
def _cli_env():
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _cli_argv(*args):
    return [sys.executable, "-m", "repro", *args]


def _strip_seconds(doc):
    if isinstance(doc, dict):
        return {k: _strip_seconds(v) for k, v in doc.items()
                if k not in ("seconds", "seconds_total")}
    if isinstance(doc, list):
        return [_strip_seconds(v) for v in doc]
    return doc


@pytest.mark.crash_full
class TestCrashMatrix:
    def test_shard_run_killed_mid_superstep_resumes_bit_identical(
        self, tmp_path
    ):
        from repro.generators.rmat import rmat

        g = rmat(10, 8.0, rng=np.random.default_rng(7))
        gpath = tmp_path / "g.npz"
        graph_io.save_npz(g, gpath)
        root = tmp_path / "ss"
        assert cli_main(["shard", "build", str(gpath), "-o", str(root),
                         "-k", "4"]) == 0
        ckpt_dir = tmp_path / "cp"
        ref_metrics = tmp_path / "ref.json"
        base = ["shard", "run", str(root),
                "--algo", "msbfs,components,pla",
                "--sources", "0,5,33"]
        run = [*base, "--checkpoint-every", "1",
               "--checkpoint-dir", str(ckpt_dir)]
        # reference: uninterrupted, checkpointing disabled
        assert cli_main([*base, "--metrics", str(ref_metrics)]) == 0
        ref = _strip_seconds(json.loads(ref_metrics.read_text())["algos"])

        out = run_coordinator_killed(
            _cli_argv(*run),
            files_appeared(ckpt_dir, "*.ckpt", 2),
            env=_cli_env(), timeout=300.0,
        )
        assert out["outcome"] == "killed"
        assert list(ckpt_dir.glob("*.ckpt"))

        metrics = tmp_path / "resumed.json"
        proc = subprocess.run(
            _cli_argv(*run, "--resume", "--metrics", str(metrics)),
            env=_cli_env(), capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        got = _strip_seconds(json.loads(metrics.read_text())["algos"])
        assert got == ref

    def test_stream_killed_mid_batch_resumes_bit_identical(self, tmp_path):
        g = karate_club()
        evs = crawl_events(g, policy="bfs", batch_size=4,
                           rng=np.random.default_rng(0))
        epath = tmp_path / "k.events"
        write_events(epath, evs, n_vertices=g.n_vertices)
        out_full = tmp_path / "full.json"
        assert cli_main(["stream", str(epath), "-o", str(out_full)]) == 0

        ckpt_dir = tmp_path / "cp"
        out_resumed = tmp_path / "resumed.json"
        run = ["stream", str(epath), "--checkpoint-dir", str(ckpt_dir),
               "-o", str(out_resumed)]
        out = run_coordinator_killed(
            _cli_argv(*run),
            files_appeared(ckpt_dir, "stream.ckpt", 1),
            env=_cli_env(), timeout=300.0,
        )
        if out["outcome"] == "killed":
            proc = subprocess.run(
                _cli_argv(*run), env=_cli_env(),
                capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
        assert out_resumed.read_bytes() == out_full.read_bytes()

    def test_daemon_killed_after_ingest_readmits_on_restart(self, tmp_path):
        import http.client
        import signal

        from repro.serve.client import ServeClient

        g = karate_club()
        gpath = tmp_path / "k.txt"
        graph_io.write_edge_list(g, str(gpath))
        state = tmp_path / "state"
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]

        proc = subprocess.Popen(
            _cli_argv("serve", "--port", str(port),
                      "--state-dir", str(state)),
            env=_cli_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            client = ServeClient("127.0.0.1", port)
            deadline = time.monotonic() + 60
            while True:
                try:
                    if client.health()["recovering"] is False:
                        break
                except (OSError, http.client.HTTPException):
                    pass
                assert time.monotonic() < deadline, "daemon never came up"
                time.sleep(0.05)
            client.load(str(gpath), name="k")
            doc = client.ingest("k", [[1, "add", 0, 33]])
            n_edges = doc["batches"][-1]["n_edges"]
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        from repro.serve.server import ReproServer, ServeConfig

        with ReproServer(ServeConfig(
            port=0, max_batch_delay=0.01, state_dir=str(state)
        )) as srv:
            summary = srv.recover()
            assert summary["loads"] == 1 and summary["ingests"] == 1
            entry = srv.session.registry.get("k")
            assert entry.graph.n_edges == n_edges

    def test_daemon_replay_time_bounded_by_compaction(self, tmp_path):
        """Replay reads the last snapshot plus a tail the compaction
        threshold bounds, so restarts across a compaction cycle after
        1 000 ingests take no more than twice as long as across one
        after 100 (summed over the cycle: the tail length depends on
        where in its cycle the daemon stopped)."""
        import shutil

        g = karate_club()
        gpath = tmp_path / "k.txt"
        graph_io.write_edge_list(g, str(gpath))
        # each window spans more than one compaction cycle (~16 ingests)
        windows = {100: range(100, 120), 1000: range(1000, 1020)}
        with _daemon(tmp_path / "state") as srv:
            srv.recover()
            srv.load(str(gpath), name="k")
            for t in range(1020):
                if t in windows[100] or t in windows[1000]:
                    shutil.copytree(tmp_path / "state", tmp_path / f"at{t}")
                _ingest(srv, "k", [[t, "add" if t % 2 == 0 else "delete",
                                    0, 9]])

        def replay_seconds(t):
            best = float("inf")
            for i in range(3):
                state = tmp_path / f"replay{t}.{i}"
                shutil.copytree(tmp_path / f"at{t}", state)
                with _daemon(state) as srv:
                    t0 = time.perf_counter()
                    assert srv.recover()["skipped"] == 0
                    best = min(best, time.perf_counter() - t0)
            return best

        cycle = {n: sum(map(replay_seconds, w)) for n, w in windows.items()}
        assert cycle[1000] <= 2.0 * cycle[100]
