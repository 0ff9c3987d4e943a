"""Durability layer: atomic writes, CRC-stamped envelopes, one log.

Every durable artifact this codebase produces — shard manifests,
checkpoints, profile/metrics JSON, the serve daemon's state log — goes
through one of three primitives so a crash at any instant leaves either
the old bytes or the new bytes on disk, never a torn mixture:

* :func:`atomic_write_bytes` / :func:`write_json_atomic` — write-temp →
  fsync → ``os.replace`` (→ fsync directory).  Plain artifacts stay
  human-readable JSON; only the write path changes.
* :func:`save_state` / :func:`load_state` — a binary *envelope* (magic,
  CRC-protected JSON header, CRC-32-stamped payload) around pickled
  state.  Truncation, bit flips and wrong-kind files all surface as a
  structured :class:`~repro.errors.CorruptCheckpoint` naming the
  offending path, never as a silent wrong answer.
* :class:`RecordLog` — the one append-only log, shared by the BSP
  driver, the stream engine and the daemon: a header envelope with the
  run's parameters, then one envelope per durable step holding what
  that step wrote.  Reading refuses a log written for other parameters
  (the one resume rule), drops a torn final record and refuses damage
  anywhere else; :meth:`RecordLog.compact` atomically replaces a log
  with one snapshot record; :func:`check_log` walks every record for
  ``repro shard verify``.
"""

from repro.durable.atomic import (
    ENVELOPE_MAGIC,
    RecordLog,
    atomic_write_bytes,
    atomic_write_text,
    check_envelope,
    check_log,
    load_state,
    pack_envelope,
    save_state,
    unpack_envelope,
    verify_envelope,
    write_json_atomic,
)

__all__ = [
    "ENVELOPE_MAGIC",
    "RecordLog",
    "atomic_write_bytes",
    "atomic_write_text",
    "check_envelope",
    "check_log",
    "load_state",
    "pack_envelope",
    "save_state",
    "unpack_envelope",
    "verify_envelope",
    "write_json_atomic",
]
