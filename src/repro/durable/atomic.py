"""Atomic file writes, the CRC-stamped envelope and the record log.

The atomic primitive is the classic write-temp → fsync → ``os.replace``
sequence (plus a directory fsync so the rename itself is durable).  A
crash at any point leaves either the previous file or the complete new
file — POSIX rename atomicity guarantees readers never observe a torn
write.

The *envelope* wraps binary payloads with enough integrity metadata to
detect every non-atomic failure mode after the fact:

``[magic 8B] [header_len u32] [header_crc u32] [header JSON] [payload]``

The header records the payload ``kind``, ``length`` and CRC-32; the
header bytes carry their own CRC.  Truncation, bit flips (in header or
payload) and wrong-kind / wrong-format files all raise
:class:`~repro.errors.CorruptCheckpoint` naming the path and the
failure, so a resume path can fail loudly instead of silently
continuing from garbage.

State (numpy arrays, nested dicts) is pickled inside the envelope —
these files are internal state written and read by the same codebase,
and the payload CRC is verified before any byte reaches the unpickler.
:func:`save_state` writes one envelope of a whole state; no reader in
this package accepts it (a :class:`RecordLog` refuses it by name).

A :class:`RecordLog` is the one durable log: a header envelope with the
parameters of the run it belongs to, then one envelope per
:meth:`RecordLog.append`.  Reading it drops a torn *final* record (a
crash mid-append) and refuses corruption anywhere else;
:meth:`RecordLog.compact` replaces the whole log with one snapshot
record.  Its :meth:`~RecordLog.load` is the one place a resume is
refused because the saved parameters differ from the live run's.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import CorruptCheckpoint

__all__ = [
    "ENVELOPE_MAGIC",
    "atomic_write_bytes",
    "atomic_write_text",
    "write_json_atomic",
    "pack_envelope",
    "save_state",
    "RecordLog",
    "check_log",
]

#: 8-byte file magic for envelope files (version suffix bumps on layout
#: change).
ENVELOPE_MAGIC = b"RDURCK1\n"

#: Layout tag of a :class:`RecordLog` header (bumps on change); a
#: single-envelope checkpoint of the same kind lacks it.
LOG_FORMAT = "record-log/1"

_HEADER_PREFIX = struct.Struct("<II")  # header_len, header_crc

#: Envelope headers are a few hundred bytes of JSON; a length beyond
#: this is a damaged prefix, not a record cut short by a crash.
_MAX_HEADER_LEN = 1 << 16


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------
def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically replace ``path`` with ``data``.

    Writes a temp file in the destination directory (same filesystem, so
    the ``os.replace`` is a true atomic rename), fsyncs it, renames it
    over the destination, then fsyncs the directory so the rename
    survives power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(path.parent)


def atomic_write_text(
    path: Union[str, Path], text: str, *, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``path`` with ``text``."""
    atomic_write_bytes(path, text.encode(encoding))


def write_json_atomic(
    path: Union[str, Path],
    doc,
    *,
    indent: Optional[int] = 2,
    sort_keys: bool = False,
) -> None:
    """Atomically write ``doc`` as a newline-terminated JSON document.

    The artifact stays plain human-readable JSON — only the write path
    gains crash safety.  This is the one sanctioned way to write a JSON
    artifact from ``src/`` (a tier-1 guard test rejects raw
    ``json.dump`` calls elsewhere).
    """
    text = json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n"
    atomic_write_text(path, text)


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so a rename is itself durable."""
    try:
        dfd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------
def pack_envelope(kind: str, payload: bytes) -> bytes:
    """Wrap ``payload`` in the CRC-stamped envelope."""
    header = json.dumps(
        {
            "format": "repro-durable",
            "version": 1,
            "kind": str(kind),
            "length": len(payload),
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        },
        sort_keys=True,
    ).encode("utf-8")
    prefix = _HEADER_PREFIX.pack(len(header), zlib.crc32(header) & 0xFFFFFFFF)
    return ENVELOPE_MAGIC + prefix + header + payload


class _TornEnvelope(CorruptCheckpoint):
    """The bytes end inside an envelope: a write cut short by a crash."""


def _parse_envelope(blob: bytes, off: int, path: str) -> tuple[str, bytes, int]:
    """Validate the envelope starting at ``blob[off]``; return ``(kind,
    payload, offset just past it)``.

    Raises :class:`_TornEnvelope` when ``blob`` ends inside an envelope
    whose bytes so far are intact, and :class:`CorruptCheckpoint` on
    every other integrity failure.
    """

    def bad(reason: str, cls=CorruptCheckpoint) -> CorruptCheckpoint:
        return cls(f"corrupt checkpoint {path}: {reason}")

    m = len(ENVELOPE_MAGIC)
    avail = len(blob) - off
    magic = blob[off : off + m]
    if magic != ENVELOPE_MAGIC[: len(magic)]:
        raise bad("bad magic (not a repro-durable envelope)")
    if avail < m + _HEADER_PREFIX.size:
        raise bad(f"truncated ({avail} bytes; no complete header)", _TornEnvelope)
    header_len, header_crc = _HEADER_PREFIX.unpack_from(blob, off + m)
    if header_len > _MAX_HEADER_LEN:
        raise bad(f"implausible header length {header_len}")
    h0 = off + m + _HEADER_PREFIX.size
    if len(blob) < h0 + header_len:
        raise bad("truncated inside header", _TornEnvelope)
    header_bytes = blob[h0 : h0 + header_len]
    if (zlib.crc32(header_bytes) & 0xFFFFFFFF) != header_crc:
        raise bad("header CRC mismatch (bit flip in header)")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise bad(f"unparseable header ({exc})") from exc
    if header.get("format") != "repro-durable" or header.get("version") != 1:
        raise bad(f"unknown format/version {header.get('format')!r}")
    p0, length = h0 + header_len, header.get("length")
    payload = blob[p0 : p0 + length]
    if len(payload) < length:
        raise bad(
            f"truncated payload ({len(payload)} of {length} bytes)", _TornEnvelope
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != header.get("crc32"):
        raise bad("payload CRC mismatch (bit flip or torn write)")
    return header.get("kind"), payload, p0 + length


def save_state(path: Union[str, Path], state, *, kind: str) -> None:
    """Atomically persist ``state`` (pickled) inside an envelope."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write_bytes(path, pack_envelope(kind, payload))


def _unpickle(payload: bytes, path):
    try:
        return pickle.loads(payload)
    except Exception as exc:  # CRC passed but unpickle failed: corrupt
        raise CorruptCheckpoint(
            f"corrupt checkpoint {path}: payload does not unpickle ({exc})"
        ) from exc


def _check_params(path, saved: dict, params: dict) -> None:
    """Refuse a log whose run ``saved`` parameters differ from the live
    run's ``params``, naming the first differing key.

    Every key in either dict must be present in both and equal
    (``np.array_equal`` for arrays); otherwise the log belongs to
    another run and resuming from it would silently produce a wrong
    answer.
    """
    missing = "<missing>"
    for key in sorted(set(saved) | set(params)):
        got, want = saved.get(key, missing), params.get(key, missing)
        if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
            same = np.array_equal(got, want)
        else:
            same = got == want
        if not same:
            raise CorruptCheckpoint(
                f"corrupt checkpoint {path}: parameter {key!r} mismatch "
                f"(checkpoint {got!r} vs run {want!r}) — it was written "
                "for a different run; delete it or rerun the original command"
            )


# ---------------------------------------------------------------------------
# Record log
# ---------------------------------------------------------------------------
def _scan_log(blob: bytes, path, kind: Optional[str]) -> tuple[dict, list, list]:
    """Walk a record log: ``(header, record payloads, ends)``, where
    ``ends`` holds the offset just past the header and then just past
    each complete record.

    The header envelope must be whole, of ``kind`` (any kind when
    ``None``) and carry :data:`LOG_FORMAT`; a single-envelope checkpoint
    is refused by name.  Every record must share the header's kind and
    pass its CRCs, except that a record the file ends inside is a torn
    append and ends the walk.
    """
    found, head, end = _parse_envelope(blob, 0, str(path))
    if kind is not None and found != kind:
        raise CorruptCheckpoint(
            f"corrupt checkpoint {path}: kind mismatch "
            f"(expected {kind!r}, found {found!r})"
        )
    header = _unpickle(head, path)
    if not isinstance(header, dict) or header.get("format") != LOG_FORMAT:
        raise CorruptCheckpoint(
            f"corrupt checkpoint {path}: older checkpoint format (one "
            "envelope of the whole state, not a record log); delete it "
            "and rerun"
        )
    records, ends = [], [end]
    while end < len(blob):
        try:
            rec_kind, payload, nxt = _parse_envelope(blob, end, str(path))
        except _TornEnvelope:
            break
        if rec_kind != found:
            raise CorruptCheckpoint(
                f"corrupt checkpoint {path}: record {len(records)} has kind "
                f"{rec_kind!r} in a {found!r} log"
            )
        records.append(payload)
        end = nxt
        ends.append(end)
    return header, records, ends


class RecordLog:
    """An append-only log: a header envelope holding the run's
    parameters, then one CRC envelope per :meth:`append`.

    A run that adds a little state per step appends that step's record
    instead of rewriting its whole state.  Appends are flushed and
    fsynced; the file (header plus first record) is created with one
    atomic write, so it never exists without a header.  :meth:`load`
    refuses a log written for other parameters, drops a torn final
    record and raises :class:`CorruptCheckpoint` naming the path on
    damage anywhere else.  :meth:`compact` folds a long log into one
    snapshot record.
    """

    def __init__(self, path: Union[str, Path], *, kind: str, params: dict) -> None:
        self.path = Path(path)
        self.kind = str(kind)
        self.params = dict(params)
        self._owned = False  # this run created or loaded the file
        #: Bytes appended since the file was last written whole (by
        #: :meth:`compact` or a first :meth:`append`): what a
        #: compaction would fold away.
        self.appended = 0

    def _pack(self, record) -> bytes:
        return pack_envelope(
            self.kind, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def load(self) -> Optional[list]:
        """The log's records, or ``None`` when there is no log file.

        A torn final record is cut off the file, so later appends extend
        a well-formed log; the step that wrote it is simply re-run.
        """
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return None
        header, records, ends = _scan_log(blob, self.path, self.kind)
        _check_params(self.path, header["params"], self.params)
        end = ends[-1]
        if end < len(blob):
            with open(self.path, "r+b") as f:
                f.truncate(end)
                os.fsync(f.fileno())
        self._owned = True
        self.appended = end - ends[min(1, len(ends) - 1)]
        return [_unpickle(p, self.path) for p in records]

    def append(self, record) -> None:
        """Durably append ``record``.

        The first append of a log this run has not loaded replaces any
        file at the path with a fresh header (see :meth:`compact`).
        """
        if not self._owned:
            self.compact(record)
            return
        env = self._pack(record)
        with open(self.path, "ab") as f:
            f.write(env)
            f.flush()
            os.fsync(f.fileno())
        self.appended += len(env)

    def compact(self, snapshot) -> None:
        """Atomically replace the log with its header and the one record
        ``snapshot``.

        ``snapshot`` must fold to the same state as every record it
        replaces.  A crash leaves either the old log or the new one.
        """
        env = self._pack(snapshot)
        head = {"format": LOG_FORMAT, "params": self.params}
        atomic_write_bytes(self.path, self._pack(head) + env)
        self._owned = True
        self.appended = 0

    def remove(self) -> None:
        """Delete the log (a finished run leaves none behind)."""
        self.path.unlink(missing_ok=True)
        self._owned = False
        self.appended = 0


def check_log(path: Union[str, Path]) -> list[str]:
    """Problem list for a :class:`RecordLog` file, for verify surfaces:
    walks every record and names damage, an older single-envelope
    checkpoint, and a torn final record (which a resume would drop)."""
    try:
        blob = Path(path).read_bytes()
        end = _scan_log(blob, path, None)[2][-1]
    except FileNotFoundError:
        return [f"{path}: missing"]
    except CorruptCheckpoint as exc:
        return [str(exc)]
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    if end < len(blob):
        return [
            f"corrupt checkpoint {path}: truncated final record "
            f"({len(blob) - end} bytes); a resume drops it and re-runs its step"
        ]
    return []
