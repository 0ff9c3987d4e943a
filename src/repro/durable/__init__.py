"""Durability layer: atomic writes, CRC-stamped envelopes, one log.

Every durable artifact this codebase produces — shard manifests,
checkpoints, profile/metrics JSON, the serve daemon's state log — goes
through one of two primitives so a crash at any instant leaves either
the old bytes or the new bytes on disk, never a torn mixture:

* :func:`atomic_write_bytes` / :func:`write_json_atomic` — write-temp →
  fsync → ``os.replace`` (→ fsync directory).  Plain artifacts stay
  human-readable JSON; only the write path changes.
* :class:`RecordLog` — the one append-only log, shared by the BSP
  driver, the stream engine and the daemon: a header envelope with the
  run's parameters, then one envelope per durable step holding what
  that step wrote.  An envelope (:func:`pack_envelope`: magic,
  CRC-protected JSON header, CRC-32-stamped payload) turns truncation,
  bit flips and wrong-kind files into a structured
  :class:`~repro.errors.CorruptCheckpoint` naming the offending path,
  never a silent wrong answer.  Reading refuses a log written for
  other parameters (the one resume rule), drops a torn final record
  and refuses damage anywhere else; :meth:`RecordLog.compact`
  atomically replaces a log with one snapshot record; :func:`check_log`
  walks every record for ``repro shard verify``.

:func:`save_state` writes one envelope of a whole pickled state; no
reader here accepts it (a :class:`RecordLog` refuses it by name).
"""

from repro.durable.atomic import (
    ENVELOPE_MAGIC,
    RecordLog,
    atomic_write_bytes,
    atomic_write_text,
    check_log,
    pack_envelope,
    save_state,
    write_json_atomic,
)

__all__ = [
    "ENVELOPE_MAGIC",
    "RecordLog",
    "atomic_write_bytes",
    "atomic_write_text",
    "check_log",
    "pack_envelope",
    "save_state",
    "write_json_atomic",
]
