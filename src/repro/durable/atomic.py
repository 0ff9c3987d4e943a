"""Atomic file writes and the CRC-stamped checkpoint envelope.

The atomic primitive is the classic write-temp → fsync → ``os.replace``
sequence (plus a directory fsync so the rename itself is durable).  A
crash at any point leaves either the previous file or the complete new
file — POSIX rename atomicity guarantees readers never observe a torn
write.

The *envelope* wraps binary checkpoint payloads with enough integrity
metadata to detect every non-atomic failure mode after the fact:

``[magic 8B] [header_len u32] [header_crc u32] [header JSON] [payload]``

The header records the payload ``kind``, ``length`` and CRC-32; the
header bytes carry their own CRC.  Truncation, bit flips (in header or
payload) and wrong-kind / wrong-format files all raise
:class:`~repro.errors.CorruptCheckpoint` naming the path and the
failure, so a resume path can fail loudly instead of silently
continuing from garbage.

Checkpoint *state* (numpy arrays, nested dicts) is pickled inside the
envelope — these files are internal coordinator state written and read
by the same codebase, and the payload CRC is verified before any byte
reaches the unpickler.

A resumable *checkpoint* (:func:`save_checkpoint`) additionally carries
the parameters of the run it belongs to; :func:`load_checkpoint` is the
one place a resume is refused because those differ from the live run's.
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
    "unpack_envelope",
    "save_state",
    "load_state",
    "save_checkpoint",
    "load_checkpoint",
    "verify_envelope",
    "check_envelope",
]

#: 8-byte file magic for envelope files (version suffix bumps on layout
#: change).
ENVELOPE_MAGIC = b"RDURCK1\n"

#: Layout tag of a :func:`save_checkpoint` payload (bumps on change); a
#: file without it predates the run-parameter header.
CHECKPOINT_FORMAT = "params/1"

_HEADER_PREFIX = struct.Struct("<II")  # header_len, header_crc


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


def unpack_envelope(
    blob: bytes, *, kind: Optional[str] = None, path: str = "<bytes>"
) -> tuple[str, bytes]:
    """Validate an envelope and return ``(kind, payload)``.

    Raises :class:`CorruptCheckpoint` on any integrity failure —
    truncation, bit flip (header or payload), bad magic, or a ``kind``
    mismatch when one is expected.
    """

    def bad(reason: str) -> CorruptCheckpoint:
        return CorruptCheckpoint(f"corrupt checkpoint {path}: {reason}")

    m = len(ENVELOPE_MAGIC)
    if len(blob) < m + _HEADER_PREFIX.size:
        raise bad(f"truncated ({len(blob)} bytes; no complete header)")
    if blob[:m] != ENVELOPE_MAGIC:
        raise bad("bad magic (not a repro-durable envelope)")
    header_len, header_crc = _HEADER_PREFIX.unpack_from(blob, m)
    h0 = m + _HEADER_PREFIX.size
    if len(blob) < h0 + header_len:
        raise bad("truncated inside header")
    header_bytes = blob[h0 : h0 + header_len]
    if (zlib.crc32(header_bytes) & 0xFFFFFFFF) != header_crc:
        raise bad("header CRC mismatch (bit flip in header)")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise bad(f"unparseable header ({exc})") from exc
    if header.get("format") != "repro-durable" or header.get("version") != 1:
        raise bad(f"unknown format/version {header.get('format')!r}")
    payload = blob[h0 + header_len :]
    length = header.get("length")
    if len(payload) < length:
        raise bad(
            f"truncated payload ({len(payload)} of {length} bytes)"
        )
    if len(payload) > length:
        raise bad(
            f"trailing garbage ({len(payload)} bytes; header says {length})"
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != header.get("crc32"):
        raise bad("payload CRC mismatch (bit flip or torn write)")
    found = header.get("kind")
    if kind is not None and found != kind:
        raise bad(f"kind mismatch (expected {kind!r}, found {found!r})")
    return found, payload


def save_state(path: Union[str, Path], state, *, kind: str) -> None:
    """Atomically persist ``state`` (pickled) inside an envelope."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    atomic_write_bytes(path, pack_envelope(kind, payload))


def load_state(path: Union[str, Path], *, kind: Optional[str] = None):
    """Load and integrity-check a :func:`save_state` file.

    Raises :class:`CorruptCheckpoint` on any integrity failure and
    ``FileNotFoundError`` when the file does not exist.
    """
    path = Path(path)
    blob = path.read_bytes()
    _, payload = unpack_envelope(blob, kind=kind, path=str(path))
    try:
        return pickle.loads(payload)
    except Exception as exc:  # CRC passed but unpickle failed: corrupt
        raise CorruptCheckpoint(
            f"corrupt checkpoint {path}: payload does not unpickle ({exc})"
        ) from exc


def save_checkpoint(
    path: Union[str, Path], state, *, kind: str, params: dict
) -> None:
    """Atomically persist ``state`` with the ``params`` of its run.

    ``params`` are whatever a resume must match for ``state`` to be this
    run's (inputs, sizes, configuration); :func:`load_checkpoint` checks
    every one of them.
    """
    doc = {"format": CHECKPOINT_FORMAT, "params": dict(params), "state": state}
    save_state(path, doc, kind=kind)


def load_checkpoint(path: Union[str, Path], *, kind: str, params: dict):
    """Load a :func:`save_checkpoint` file written for a run with ``params``.

    Every key in either dict must be present in both and equal
    (``np.array_equal`` for arrays); otherwise the checkpoint belongs to
    another run and resuming from it would silently produce a wrong
    answer, so :class:`CorruptCheckpoint` names the first differing key.
    A file without the parameter header (an older format) is refused the
    same way.  Integrity failures raise as in :func:`load_state`.
    """
    doc = load_state(path, kind=kind)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CorruptCheckpoint(
            f"corrupt checkpoint {path}: older checkpoint format (no "
            "run-parameter header); delete it and rerun"
        )
    saved = doc["params"]
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
    return doc["state"]


def verify_envelope(
    path: Union[str, Path], *, kind: Optional[str] = None
) -> str:
    """Validate an envelope file's integrity; return its kind.

    Raises :class:`CorruptCheckpoint` (or ``FileNotFoundError``) on
    failure.  Does not unpickle the payload.
    """
    path = Path(path)
    found, _ = unpack_envelope(path.read_bytes(), kind=kind, path=str(path))
    return found


def check_envelope(path: Union[str, Path]) -> list[str]:
    """Problem-list form of :func:`verify_envelope` for verify surfaces."""
    try:
        verify_envelope(path)
    except FileNotFoundError:
        return [f"{path}: missing"]
    except CorruptCheckpoint as exc:
        return [str(exc)]
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    return []
