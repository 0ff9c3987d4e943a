"""Durability layer: atomic writes, envelopes, journals, crash resume.

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
import json
import os
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
    Journal,
    RecordLog,
    check_envelope,
    check_log,
    load_state,
    pack_envelope,
    replay_journal,
    save_checkpoint,
    save_state,
    unpack_envelope,
    verify_envelope,
    write_json_atomic,
)
from repro.dynamic import StreamEngine, crawl_events, group_batches, write_events
from repro.errors import AdmissionDenied, CorruptCheckpoint, ServiceRecovering
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

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def karate():
    return karate_club()


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

    def test_envelope_roundtrip(self):
        payload = b"\x00\x01payload bytes\xff"
        blob = pack_envelope("unit-test", payload)
        assert blob.startswith(ENVELOPE_MAGIC)
        kind, got = unpack_envelope(blob, kind="unit-test")
        assert kind == "unit-test"
        assert got == payload

    def test_save_load_state_numpy_bit_identical(self, tmp_path):
        path = tmp_path / "s.ckpt"
        arr = np.arange(257, dtype=np.int32).reshape(1, -1)
        save_state(path, {"arr": arr, "n": 7}, kind="unit-test")
        st = load_state(path, kind="unit-test")
        assert st["n"] == 7
        assert st["arr"].tobytes() == arr.tobytes()
        assert st["arr"].dtype == arr.dtype
        assert verify_envelope(path) == "unit-test"
        assert check_envelope(path) == []

    def test_kind_mismatch_refused(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_state(path, {"x": 1}, kind="alpha")
        with pytest.raises(CorruptCheckpoint, match="kind mismatch"):
            load_state(path, kind="beta")

    @pytest.mark.parametrize("cut", [0, 4, 11, 30, -1])
    def test_truncation_detected(self, tmp_path, cut):
        path = tmp_path / "s.ckpt"
        save_state(path, {"x": list(range(100))}, kind="t")
        blob = path.read_bytes()
        path.write_bytes(blob[:cut])
        with pytest.raises(CorruptCheckpoint, match="truncated|CRC"):
            load_state(path, kind="t")
        assert check_envelope(path) != []

    @pytest.mark.parametrize("where", ["magic", "header", "payload"])
    def test_bit_flip_detected(self, tmp_path, where):
        path = tmp_path / "s.ckpt"
        save_state(path, {"x": list(range(100))}, kind="t")
        blob = bytearray(path.read_bytes())
        offset = {"magic": 2, "header": 20, "payload": len(blob) - 5}[where]
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint):
            load_state(path, kind="t")
        problems = check_envelope(path)
        assert problems and str(path) in problems[0]

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_state(path, {"x": 1}, kind="t")
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CorruptCheckpoint, match="trailing garbage"):
            verify_envelope(path)

    def test_non_envelope_file_refused(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"this is not an envelope at all, not even close")
        with pytest.raises(CorruptCheckpoint, match="bad magic"):
            verify_envelope(path)

    def test_check_envelope_missing_file(self, tmp_path):
        assert check_envelope(tmp_path / "absent.ckpt") != []


# ---------------------------------------------------------------------------
# The append-only journal
# ---------------------------------------------------------------------------
class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ops.journal"
        records = [{"op": "load", "i": i} for i in range(5)]
        with Journal(path) as j:
            for r in records:
                j.append(r)
        assert replay_journal(path) == records

    def test_append_survives_reopen(self, tmp_path):
        path = tmp_path / "ops.journal"
        with Journal(path) as j:
            j.append({"op": "a"})
        with Journal(path) as j:
            j.append({"op": "b"})
        assert [r["op"] for r in replay_journal(path)] == ["a", "b"]

    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "ops.journal"
        with Journal(path) as j:
            j.append({"op": "a"})
            j.append({"op": "bbbbbbbbbbbbbbbb"})
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])  # crash mid-append: torn tail
        assert [r["op"] for r in replay_journal(path)] == ["a"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "ops.journal"
        with Journal(path) as j:
            j.append({"op": "aaaa"})
            j.append({"op": "b"})
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace("aaaa", "aaaX")
        path.write_text("".join(lines))
        with pytest.raises(CorruptCheckpoint, match="line 1"):
            replay_journal(path)

    def test_final_line_bit_flip_is_not_torn(self, tmp_path):
        # A newline-terminated final line whose body still parses as
        # JSON but fails its CRC is real corruption, not a torn append.
        path = tmp_path / "ops.journal"
        with Journal(path) as j:
            j.append({"op": "aaaa"})
        path.write_text(path.read_text().replace("aaaa", "aaaX"))
        with pytest.raises(CorruptCheckpoint):
            replay_journal(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert replay_journal(tmp_path / "absent.journal") == []


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
        save_checkpoint(path, {"dist": np.zeros(5)}, kind="unit-log",
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


def test_no_raw_state_io_in_src():
    """Every checkpoint in ``src/`` goes through the durability layer's
    parameter-checked forms, so the one run-parameter check refuses
    every foreign resume — no surface hand-rolls its own.  The BSP
    driver writes a ``RecordLog`` of per-step records; a whole-state
    ``save_checkpoint`` is the stream engine's alone."""
    offenders = []
    for path in sorted((REPO / "src").rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith("src/repro/durable/"):
            continue
        needles = ["save_state(", "load_state("]
        if rel != "src/repro/dynamic/engine.py":
            needles.append("save_checkpoint(")
        text = path.read_text()
        offenders += [f"{rel}: {n}" for n in needles if n in text]
    assert not offenders, (
        "raw or whole-state checkpoint I/O found — use repro.durable."
        f"RecordLog (or, for the stream engine, save_checkpoint): {offenders}"
    )


def test_one_serving_composition_in_src():
    """A serving stack (registry, coalescer, stream engines) is composed
    in one place, ``repro.api.Session``; the daemon is a session behind
    HTTP and builds no context, registry, coalescer or engine of its
    own."""
    offenders = []
    for path in sorted((REPO / "src").rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        if rel == "src/repro/api.py":
            continue
        needles = ["GraphRegistry(", "Coalescer(", "StreamEngine.from_graph("]
        if rel == "src/repro/serve/server.py":
            needles += ["make_context(", "ParallelContext(", "self.engines"]
        text = path.read_text()
        offenders += [f"{rel}: {n}" for n in needles if n in text]
    assert not offenders, (
        f"a second serving composition outside repro.api.Session: {offenders}"
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
    """The path 0 - 39 - 38 - ... - 1: vertex 1 represents the rest
    until 0's label has walked to it, one hop per round, so components
    takes a round per hop (and msbfs from 0 a level per hop)."""
    order = [0, *range(39, 0, -1)]
    return from_edge_list(list(zip(order[:-1], order[1:])), n_vertices=40)


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
        save_checkpoint(path, {
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
        g = _slow_components_graph()
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
    def test_save_load_mid_stream_bit_identical(self, karate, tmp_path):
        evs = crawl_events(
            karate, policy="mod", batch_size=6,
            rng=np.random.default_rng(1),
        )
        batches = list(group_batches(evs))
        cut = len(batches) // 2
        full = StreamEngine(karate.n_vertices, k=5)
        for b in batches:
            full.apply_batch(b)

        part = StreamEngine(karate.n_vertices, k=5)
        for b in batches[:cut]:
            part.apply_batch(b)
        ckpt = tmp_path / "stream.ckpt"
        part.save(ckpt)
        resumed = StreamEngine(karate.n_vertices, k=5)
        resumed.resume(ckpt)
        for b in batches[cut:]:
            resumed.apply_batch(b)
        assert [r.checksum for r in full.results] == [
            r.checksum for r in resumed.results
        ]

    def test_corrupt_stream_checkpoint_refused(self, karate, tmp_path):
        eng = StreamEngine(karate.n_vertices)
        ckpt = tmp_path / "stream.ckpt"
        eng.save(ckpt)
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpoint):
            StreamEngine(karate.n_vertices).resume(ckpt)

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
        part = StreamEngine(n)  # CLI defaults: components,stats,degree k=10
        for b in batches[: len(batches) // 2]:
            part.apply_batch(b)
        part.save(ckpt_dir / "stream.ckpt")

        out_resumed = tmp_path / "resumed.json"
        assert cli_main(["stream", str(path),
                         "--checkpoint-dir", str(ckpt_dir),
                         "-o", str(out_resumed)]) == 0
        assert out_resumed.read_bytes() == out_full.read_bytes()

    @pytest.mark.parametrize("name, value", [
        pytest.param(name, value, id=name) for name, value in (
            ("k", 5), ("window", 2), ("resweep_passes", 1),
            ("community_escalate", False),
        )
    ])
    def test_cli_resume_config_mismatch_refused(self, events_file, tmp_path,
                                                capsys, name, value):
        """Every engine setting is checked — the last two change the
        community output but are not CLI flags."""
        path, batches, n = events_file
        ckpt_dir = tmp_path / "ck"
        ckpt_dir.mkdir()
        analytics = ("components", "community")
        part = StreamEngine(n, **{"analytics": analytics, "k": 10,
                                  name: value})  # the CLI's but one
        for b in batches[:2]:
            part.apply_batch(b)
        part.save(ckpt_dir / "stream.ckpt")
        assert cli_main(["stream", str(path), "--analytics", ",".join(analytics),
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
        other = StreamEngine(n)
        from repro.dynamic import EdgeEvent

        other.apply_batch([EdgeEvent("add", 0, 1, t=0)])
        other.save(ckpt_dir / "stream.ckpt")
        assert cli_main(["stream", str(path),
                         "--checkpoint-dir", str(ckpt_dir)]) == 1
        assert "not a prefix" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Restart-safe daemon (tier-1)
# ---------------------------------------------------------------------------
def _edges(graph):
    u, v = graph.edge_endpoints()
    return sorted(zip(u.tolist(), v.tolist()))


class TestServeDurability:
    def _mk(self, state_dir):
        from repro.serve.server import ReproServer, ServeConfig

        return ReproServer(ServeConfig(
            port=0, max_batch_delay=0.01, state_dir=str(state_dir)
        ))

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

    def test_refused_ingest_is_neither_served_nor_replayed(self, tmp_path):
        state = tmp_path / "state"
        gpath = tmp_path / "g.npz"
        graph_io.save_npz(from_edge_list([(0, 1), (1, 2)], n_vertices=6), gpath)
        with self._mk(state) as srv:
            srv.start_background()
            srv.recover()
            client = self._client(srv)
            client.load(str(gpath), name="g")
            client.ingest("g", [[1, "add", 3, 4]])
            srv.session.registry.pin("g")  # as an in-flight query batch does
            with pytest.raises(AdmissionDenied):
                client.ingest("g", [[2, "add", 2, 3]])
            srv.session.registry.unpin("g")
            client.ingest("g", [[3, "add", 4, 5]])
            served = _edges(srv.session.registry.get("g").graph)
        assert served == [(0, 1), (1, 2), (3, 4), (4, 5)]
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
