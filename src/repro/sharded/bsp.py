"""BSP superstep driver for shard-at-a-time execution (DESIGN §12).

Algorithms over a :class:`~repro.sharded.shards.ShardSet` run as a
sequence of *supersteps*: the coordinator builds one self-contained
payload per shard from its O(n)-vertex state, fans them out over the
execution context (serial / thread / process backend), and folds the
per-shard results back in.  Workers are pure functions of their payload
plus the immutable on-disk shard, so:

* **Recovery** falls out of the resilience runtime for free: a worker
  killed mid-superstep (chaos ``exit`` faults, real crashes) is re-run
  by the active :class:`~repro.parallel.resilience.FaultPolicy` with the
  *same* payload — i.e. from the state of the last completed superstep —
  and produces bit-identical results.
* **Working memory** stays ``O(largest shard + halo)`` per worker (each
  worker has at most one shard's pages resident at a time) plus ``O(n)``
  vertex state at the coordinator — never the ``O(n + m)`` in-core CSR.

The driver records per-superstep wall time and boundary-exchange bytes
(payload out / results in) for the ``shard_full`` benchmark gate, and
enforces an optional :class:`MemoryBudget`.
"""

from __future__ import annotations

import resource
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from repro.durable import RecordLog
from repro.errors import MemoryBudgetExceeded
from repro.parallel.runtime import ParallelContext, ensure_context
from repro.sharded.shards import ShardSet, clear_shard_cache

__all__ = [
    "MemoryBudget",
    "SuperstepStats",
    "BSPDriver",
    "BSPCheckpointer",
    "payload_nbytes",
    "CHECKPOINT_DIRNAME",
    "CHECKPOINT_SUFFIX",
    "CHECKPOINT_KIND",
]

#: Default checkpoint directory name under the shard-set root.
CHECKPOINT_DIRNAME = ".checkpoints"

#: File suffix of a tag's checkpoint (a :class:`~repro.durable.RecordLog`).
CHECKPOINT_SUFFIX = ".ckpt"

#: Envelope ``kind`` of BSP coordinator checkpoint logs.
CHECKPOINT_KIND = "bsp-checkpoint"


def payload_nbytes(obj) -> int:
    """Approximate wire size of a superstep payload / result.

    Strings count 0: the only ones in a payload are shard paths —
    addressing, not boundary data — and counting them made the ledger
    depend on the name of the directory the shard set lives in.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_nbytes(v) for v in obj.values())
    if isinstance(obj, str):
        return 0
    if isinstance(obj, bytes):
        return len(obj)
    return 8


class MemoryBudget:
    """A peak working-memory cap, in bytes.

    Two enforcement points:

    * :meth:`admit` — an up-front refusal: raise when a *planned*
      allocation (the in-core CSR, a shard working set, a registry
      admission) provably exceeds the cap.  This is what makes "the
      in-core path is refused by the budget guard" a deterministic,
      testable event rather than an OOM kill.
    * :meth:`check_rss` — a measured backstop: compare the process
      tree's peak RSS high-water mark against the cap after each
      superstep.  Off by default (``enforce_rss=False``) because the
      interpreter's baseline RSS dominates small runs; the
      ``shard_full`` gate turns it on.
    """

    def __init__(self, cap_bytes: int, *, enforce_rss: bool = False) -> None:
        if cap_bytes <= 0:
            raise ValueError("cap_bytes must be positive")
        self.cap_bytes = int(cap_bytes)
        self.enforce_rss = bool(enforce_rss)

    @staticmethod
    def peak_rss_bytes() -> int:
        """Peak RSS of this process and its (reaped) children, bytes.

        Self is read from ``/proc/self/status`` ``VmHWM`` where
        available: Linux carries ``ru_maxrss`` across ``fork``+``exec``
        (it lives in the signal struct), so a fresh subprocess spawned
        from a large parent would inherit the parent's high-water mark
        and trip the budget before doing any work.  ``VmHWM`` belongs
        to the post-exec address space and has no such ghost.
        """
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            with open("/proc/self/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        self_kb = int(line.split()[1])
                        break
        except OSError:
            pass
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return int(max(self_kb, child_kb)) * 1024

    def admit(self, nbytes: int, what: str) -> int:
        """Refuse a planned allocation that cannot fit under the cap."""
        if int(nbytes) > self.cap_bytes:
            raise MemoryBudgetExceeded(
                f"{what} needs {int(nbytes)} bytes; memory budget is "
                f"{self.cap_bytes} bytes"
            )
        return int(nbytes)

    def check_rss(self, what: str = "superstep") -> int:
        """Measured peak-RSS backstop; returns the current peak."""
        peak = self.peak_rss_bytes()
        if self.enforce_rss and peak > self.cap_bytes:
            raise MemoryBudgetExceeded(
                f"peak RSS {peak} bytes exceeded memory budget "
                f"{self.cap_bytes} bytes during {what}"
            )
        return peak


@dataclass
class SuperstepStats:
    """One superstep's ledger entry."""

    index: int
    phase: str
    n_tasks: int
    seconds: float
    bytes_out: int  # coordinator → workers (payloads)
    bytes_in: int   # workers → coordinator (results)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class BSPCheckpointer:
    """Checkpoint policy for a :class:`BSPDriver` (DESIGN §13).

    ``every`` is the cadence in *supersteps* between durable appends;
    ``resume`` arms :meth:`BSPDriver.resume` so algorithms restart
    from the last durable superstep instead of from scratch.  The
    disabled path (``checkpointer=None`` on the driver) costs one
    attribute check per superstep.
    """

    directory: Path
    every: int = 1
    resume: bool = False

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        if self.every < 1:
            raise ValueError("checkpoint cadence `every` must be >= 1")

    def path_for(self, tag: str) -> Path:
        safe = tag.replace("/", "_").replace("\\", "_")
        return self.directory / f"{safe}{CHECKPOINT_SUFFIX}"


@dataclass
class _TagLog:
    """One tag's checkpoint log and what the driver has yet to append."""

    log: RecordLog
    pending: list = field(default_factory=list)  # records since the last append
    n_stats: int = 0  # ledger entries the log already holds


@dataclass
class BSPDriver:
    """Runs supersteps over a shard set and keeps the metrics ledger."""

    shard_set: ShardSet
    ctx: Optional[ParallelContext] = None
    mem_budget: Optional[MemoryBudget] = None
    stats: list = field(default_factory=list)
    last_completed: int = -1
    checkpointer: Optional[BSPCheckpointer] = None
    _last_saved: int = -1
    _logs: dict = field(default_factory=dict)  # tag -> _TagLog

    def __post_init__(self) -> None:
        self.ctx = ensure_context(self.ctx)
        if self.mem_budget is not None:
            # Every superstep maps at most one shard per worker; refuse
            # up front if even that working set cannot fit.
            self.mem_budget.admit(
                self.shard_set.largest_shard_bytes,
                f"largest shard of {self.shard_set.root}",
            )

    # ------------------------------------------------------------------
    def superstep(self, phase: str, worker: Callable, payloads: Sequence) -> list:
        """Fan one superstep out over the backend and ledger it.

        The cost model sees one region and one phase of one unit of
        work per shard task.  ``worker`` must be module-level
        (process-backend picklable) and
        pure in its payload; the active FaultPolicy re-runs crashed
        tasks with the same payload, which is exactly "resume from the
        last completed superstep" because payloads are built from
        coordinator state that only advances *between* supersteps.
        """
        index = self.last_completed + 1
        if payloads:
            self.ctx.cost.region()
            self.ctx.cost.phase(float(len(payloads)), 1.0)
        t0 = time.perf_counter()
        results = self.ctx.map(worker, list(payloads))
        seconds = time.perf_counter() - t0
        # In-process backends leave the last shard resident in this
        # process; release its pages (the mapping stays) so coordinator
        # merge transients between supersteps don't stack on top of
        # them.  (With the process backend the resident shards live in
        # the children.)
        clear_shard_cache()
        self.stats.append(
            SuperstepStats(
                index=index,
                phase=phase,
                n_tasks=len(payloads),
                seconds=seconds,
                bytes_out=payload_nbytes(list(payloads)),
                bytes_in=payload_nbytes(results),
            )
        )
        self.last_completed = index
        if self.mem_budget is not None:
            self.mem_budget.check_rss(f"superstep {index} ({phase})")
        return results

    # ------------------------------------------------------------------
    # Durable coordinator checkpoints (DESIGN §13).
    #
    # Coordinator state only advances *between* supersteps, and a
    # superstep's output is what it wrote — so a log of per-superstep
    # records, folded back in order by the deterministic algorithm
    # loop, resumes with bit-identical results after the coordinator
    # process itself is SIGKILLed: the argument that makes worker
    # re-runs exact, lifted one level up.
    # ------------------------------------------------------------------
    def maybe_checkpoint(self, tag: str, record, *, force: bool = False) -> bool:
        """Buffer ``record`` for ``tag``; append the buffer if the
        cadence is due (or ``force``).

        ``record`` is what the algorithm's last step wrote; the records
        :meth:`resume` returns, folded in order, must rebuild the state.
        Each append carries the pending records plus the ledger entries
        the log does not hold yet and ``last_completed``, so a resumed
        run's metrics cover the pre-crash supersteps too.  Returns
        whether an append was made.
        """
        cp = self.checkpointer
        if cp is None:
            return False
        tl = self._logs[tag]
        tl.pending.append(record)
        if not force and self.last_completed - self._last_saved < cp.every:
            return False
        tl.log.append({
            "records": tl.pending,
            "last_completed": self.last_completed,
            "stats": [s.as_dict() for s in self.stats[tl.n_stats:]],
        })
        tl.pending, tl.n_stats = [], len(self.stats)
        self._last_saved = self.last_completed
        return True

    def resume(self, tag: str, params: dict) -> Optional[list]:
        """Open ``tag``'s log for a run with ``params``; return its
        records or ``None``.

        Every algorithm calls this before its first superstep: the
        parameters (plus the tag) head ``tag``'s log, and records are
        returned only when the checkpointer was armed with
        ``resume=True``, a log exists and its parameters equal these
        (otherwise :class:`~repro.durable.RecordLog` refuses it as
        :class:`~repro.errors.CorruptCheckpoint`).  Restores the
        driver's ledger to the log's (when it is ahead of the current
        one) so resumed metrics are cumulative.  Without ``resume`` the
        first append starts a fresh log over any old one.
        """
        cp = self.checkpointer
        if cp is None:
            return None
        log = RecordLog(
            cp.path_for(tag), kind=CHECKPOINT_KIND, params={"tag": tag, **params}
        )
        self._logs[tag] = tl = _TagLog(log)
        appends = log.load() if cp.resume else None
        if not appends:
            return None
        stats = [SuperstepStats(**d) for a in appends for d in a["stats"]]
        tl.n_stats = len(stats)
        last = appends[-1]
        if int(last["last_completed"]) > self.last_completed:
            self.last_completed = int(last["last_completed"])
            self.stats = stats
        self._last_saved = self.last_completed
        return [r for a in appends for r in a["records"]]

    def clear_checkpoint(self, tag: str) -> None:
        """Delete ``tag``'s log and drop its pending records (called
        when the algorithm ends)."""
        tl = self._logs.pop(tag, None)
        if tl is not None:
            tl.log.remove()

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Ledger summary for ``benchmarks/results/shard_scale.json``."""
        return {
            "k_shards": self.shard_set.k,
            "backend": self.ctx.backend,
            "n_workers": self.ctx.n_workers,
            "n_supersteps": len(self.stats),
            "seconds_total": float(sum(s.seconds for s in self.stats)),
            "boundary_bytes_out": int(sum(s.bytes_out for s in self.stats)),
            "boundary_bytes_in": int(sum(s.bytes_in for s in self.stats)),
            "peak_rss_bytes": MemoryBudget.peak_rss_bytes(),
            "mem_budget_bytes": (
                self.mem_budget.cap_bytes if self.mem_budget else None
            ),
            "supersteps": [s.as_dict() for s in self.stats],
        }
