"""Durability layer: atomic writes, CRC-stamped envelopes, logs, journals.

Every durable artifact this codebase produces — shard manifests,
checkpoint state, profile/metrics JSON, the serve registry journal —
goes through one of four primitives so a crash at any instant leaves
either the old bytes or the new bytes on disk, never a torn mixture:

* :func:`atomic_write_bytes` / :func:`write_json_atomic` — write-temp →
  fsync → ``os.replace`` (→ fsync directory).  Plain artifacts stay
  human-readable JSON; only the write path changes.
* :func:`save_state` / :func:`load_state` — a binary *envelope* (magic,
  CRC-protected JSON header, CRC-32-stamped payload) around pickled
  checkpoint state.  Truncation, bit flips and wrong-kind files all
  surface as a structured :class:`~repro.errors.CorruptCheckpoint`
  naming the offending path, never as a silent wrong answer.
  :func:`save_checkpoint` / :func:`load_checkpoint` add the run's
  parameters to that state and refuse to resume a different run — the
  one resume rule every checkpointing surface shares.
* :class:`RecordLog` — the append-only checkpoint of the BSP driver: a
  header envelope with the run's parameters (checked by the same rule),
  then one envelope per durable step holding what that step wrote.
  Reading drops a torn final record and refuses damage anywhere else;
  :func:`check_log` walks every record for ``repro shard verify``.
* :class:`~repro.durable.journal.Journal` — an append-only JSONL log
  with a per-line CRC stamp; replay tolerates exactly one torn final
  line (a crash mid-append) and rejects corruption anywhere else.
"""

from repro.durable.atomic import (
    ENVELOPE_MAGIC,
    RecordLog,
    atomic_write_bytes,
    atomic_write_text,
    check_envelope,
    check_log,
    load_checkpoint,
    load_state,
    pack_envelope,
    save_checkpoint,
    save_state,
    unpack_envelope,
    verify_envelope,
    write_json_atomic,
)
from repro.durable.journal import Journal, replay_journal

__all__ = [
    "ENVELOPE_MAGIC",
    "RecordLog",
    "atomic_write_bytes",
    "atomic_write_text",
    "check_envelope",
    "check_log",
    "load_checkpoint",
    "load_state",
    "pack_envelope",
    "save_checkpoint",
    "save_state",
    "unpack_envelope",
    "verify_envelope",
    "write_json_atomic",
    "Journal",
    "replay_journal",
]
