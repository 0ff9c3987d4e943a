"""PRAM-style work–span cost model for modeled parallel execution time.

Rationale (DESIGN.md §3, substitution 1): the paper reports wall-clock
speedups on a 32-thread Sun Fire T2000; CPython on a single core cannot
reproduce those numbers directly.  Instead, every kernel here executes
its parallel decomposition faithfully and *records* it phase by phase:

* a **phase** is one barrier-separated parallel step (e.g. one BFS
  level, one ΔQ row merge).  We record its total work ``W`` and the
  largest indivisible work item ``M`` (granularity).  Under greedy
  scheduling, Graham's bound gives phase makespan ``W/p + (1 - 1/p)·M``.
* **serial** work runs on one processor regardless of ``p``.
* **barriers** and **locks** cost time that *grows* with ``p``
  (tree-barrier latency, contention), which is what bends speedup
  curves over — exactly the saturation visible in the paper's Figure 2.

``modeled_time(p)`` combines the records with a
:class:`MachineModel`'s calibrated constants.  The defaults are tuned so
that SNAP's kernels land in the paper's reported speedup range
(≈9–13× on 32 threads) when run on the paper's workloads; the *shape*
(which algorithm scales best, where curves flatten) is produced by the
measured profile, not hand-set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class MachineModel:
    """Calibrated cost constants (arbitrary time units ≈ one memory op).

    Attributes
    ----------
    t_op:
        Cost of one unit of recorded work (a visited arc, a merged ΔQ
        entry, ...).
    t_barrier_base, t_barrier_log:
        Barrier latency ``t_barrier_base + t_barrier_log · log2(p)`` —
        a tree barrier.
    t_lock:
        Uncontended cost of a full mutex acquire/release.
    lock_contention:
        Extra per-lock cost multiplied by ``log2(p)``; the cache-line
        ping-pong of a contended mutex.
    t_cas, cas_contention:
        The same pair for single-word atomics (compare-and-swap) — the
        cheap primitive SNAP's "lock-free" kernels lean on.
    t_spawn:
        One-time cost of waking ``p`` workers per parallel region.

    The defaults are calibrated once, jointly, so that the instrumented
    kernels land in the speedup bands the paper reports on the 32-thread
    Sun Fire T2000 (BFS ≈ low teens; pBD ≈ 13, pMA ≈ 9, pLA ≈ 12 in
    Figure 2).  They are *not* fit per experiment — every harness uses
    this single machine description.
    """

    t_op: float = 1.0
    t_barrier_base: float = 40.0
    t_barrier_log: float = 20.0
    t_lock: float = 4.0
    lock_contention: float = 2.0
    t_cas: float = 2.0
    cas_contention: float = 0.5
    t_spawn: float = 300.0
    #: Cost of faulting one page of a memory-mapped shard into a worker
    #: (in ``t_op`` units ≈ memory ops: a 4 KiB major fault costs far
    #: more than the 512 words it delivers).
    t_page_in: float = 2000.0
    page_size: int = 4096

    def barrier_cost(self, p: int) -> float:
        if p <= 1:
            return 0.0
        return self.t_barrier_base + self.t_barrier_log * math.log2(p)

    def page_in_cost(self, n_bytes: int) -> float:
        """Modeled cost of paging ``n_bytes`` of a cold mmap'd shard in."""
        if n_bytes <= 0:
            return 0.0
        pages = -(-int(n_bytes) // self.page_size)
        return pages * self.t_page_in

    def lock_cost(self, p: int) -> float:
        if p <= 1:
            return self.t_lock
        return self.t_lock + self.lock_contention * math.log2(p)

    def cas_cost(self, p: int) -> float:
        if p <= 1:
            return self.t_cas
        return self.t_cas + self.cas_contention * math.log2(p)


@dataclass
class _Phase:
    work: float
    max_item: float
    count: int = 1  # identical phases are run-length compressed
    flag_sync: bool = False  # flag/future sync instead of a full barrier


class CostModel:
    """Accumulates a kernel run's work/span/sync profile.

    Kernels call :meth:`phase`, :meth:`serial`, :meth:`lock` during
    execution; harnesses call :meth:`modeled_time` / :meth:`speedup`
    afterwards.  Profiles are composable via :meth:`merge` (e.g. a
    clustering algorithm merges the profiles of its inner BFS calls).
    """

    def __init__(self) -> None:
        self.machine = MachineModel()
        self._phases: list[_Phase] = []
        self.serial_work: float = 0.0
        self.lock_events: int = 0
        self.cas_events: int = 0
        self.regions: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def phase(
        self, work: float, max_item: float = 1.0, *, flag_sync: bool = False
    ) -> None:
        """Record one parallel phase.

        ``work`` is the phase's total work; ``max_item`` the largest
        indivisible chunk (1 when work is perfectly divisible).  With
        ``flag_sync`` the phase completes through point-to-point flags
        (one CAS) instead of a full barrier — the cheaper construct the
        paper's "aggressively reduce locking and barrier constructs"
        engineering targets for very fine-grained phases.
        """
        if work < 0 or max_item < 0:
            raise ValueError("work and max_item must be non-negative")
        max_item = min(max_item, work) if work else 0.0
        tail = self._phases[-1] if self._phases else None
        if (
            tail is not None
            and tail.work == work
            and tail.max_item == max_item
            and tail.flag_sync == flag_sync
        ):
            tail.count += 1
        else:
            self._phases.append(_Phase(work, max_item, flag_sync=flag_sync))

    def serial(self, work: float) -> None:
        """Record work that runs on one processor regardless of ``p``."""
        if work < 0:
            raise ValueError("work must be non-negative")
        self.serial_work += work

    def lock(self, count: int = 1) -> None:
        """Record ``count`` mutex acquisitions."""
        self.lock_events += count

    def cas(self, count: int = 1) -> None:
        """Record ``count`` single-word atomic (CAS) operations."""
        self.cas_events += count

    def region(self, count: int = 1) -> None:
        """Record entry into a parallel region (worker wake-up cost)."""
        self.regions += count

    def page_in(self, n_bytes: int) -> None:
        """Record paging ``n_bytes`` of a cold memory-mapped shard in.

        Charged as one maximally-granular phase: a shard's page-in is
        one worker's sequential fault stream, so it contributes its full
        cost to the span (other workers fault their own shards
        concurrently, which *is* the phase-parallelism).
        """
        cost = self.machine.page_in_cost(n_bytes)
        if cost:
            self.phase(cost, cost)

    def merge(self, other: "CostModel") -> None:
        """Fold another profile into this one (phases concatenate)."""
        self._phases.extend(replace_list(other._phases))
        self.serial_work += other.serial_work
        self.lock_events += other.lock_events
        self.cas_events += other.cas_events
        self.regions += other.regions

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def parallel_work(self) -> float:
        return sum(ph.work * ph.count for ph in self._phases)

    @property
    def total_work(self) -> float:
        return self.parallel_work + self.serial_work

    @property
    def n_barriers(self) -> int:
        return sum(ph.count for ph in self._phases)

    @property
    def span(self) -> float:
        """Critical-path work: serial work plus each phase's max item."""
        return self.serial_work + sum(ph.max_item * ph.count for ph in self._phases)

    def modeled_time(self, p: int) -> float:
        """Modeled execution time on ``p`` processors."""
        if p < 1:
            raise ValueError("p must be >= 1")
        mach = self.machine
        t = self.serial_work * mach.t_op
        t += self.regions * (mach.t_spawn if p > 1 else 0.0)
        barrier = mach.barrier_cost(p)
        flag = mach.cas_cost(p)
        for ph in self._phases:
            if p == 1:
                per_phase = ph.work * mach.t_op
            else:
                makespan = ph.work / p + (1.0 - 1.0 / p) * ph.max_item
                sync = flag if ph.flag_sync else barrier
                per_phase = makespan * mach.t_op + sync
            t += per_phase * ph.count
        t += self.lock_events * mach.lock_cost(p)
        t += self.cas_events * mach.cas_cost(p)
        return t

    def speedup(self, p: int) -> float:
        """Modeled relative speedup ``T(1) / T(p)``."""
        t1 = self.modeled_time(1)
        tp = self.modeled_time(p)
        return t1 / tp if tp > 0 else 1.0

    def speedup_curve(self, ps: list[int]) -> dict[int, float]:
        return {p: self.speedup(p) for p in ps}

    def reset(self) -> None:
        self._phases.clear()
        self.serial_work = 0.0
        self.lock_events = 0
        self.cas_events = 0
        self.regions = 0

    def summary(self) -> dict[str, float]:
        """Human-readable profile summary."""
        return {
            "parallel_work": self.parallel_work,
            "serial_work": self.serial_work,
            "span": self.span,
            "barriers": float(self.n_barriers),
            "lock_events": float(self.lock_events),
            "cas_events": float(self.cas_events),
            "regions": float(self.regions),
        }


def replace_list(phases: list[_Phase]) -> list[_Phase]:
    """Deep-copy a phase list (phases are mutable run-length cells)."""
    return [replace(ph) for ph in phases]


#: Halo fraction assumed when sizing shards before a partition exists:
#: multilevel partitions of small-world graphs typically replicate
#: 5–25% of a shard's vertices as ghosts; 0.15 is the middle of that
#: band and errs toward more shards (safer under a hard budget).
DEFAULT_HALO_FRACTION = 0.15

#: Per-worker overhead besides the mapped shard: superstep payloads,
#: result buffers and interpreter slack, as a fraction of shard bytes.
WORKING_SET_FACTOR = 1.5


def recommend_shards(
    graph_bytes: int,
    mem_budget: int,
    *,
    halo_fraction: float = DEFAULT_HALO_FRACTION,
    max_shards: int = 4096,
) -> int:
    """Smallest shard count whose per-shard working set fits the budget.

    ``graph_bytes`` is the in-core CSR size (see
    :func:`repro.sharded.shards.in_core_nbytes`); ``mem_budget`` the
    bytes one worker may keep resident.  A ``k``-way split leaves
    roughly ``graph_bytes / k`` owned payload per shard, inflated by the
    halo layer (``k > 1`` only) and the superstep working set; we pick
    the smallest ``k`` that fits so shards stay as coarse — and page-in
    as sequential — as possible.
    """
    if graph_bytes < 0:
        raise ValueError("graph_bytes must be non-negative")
    if mem_budget <= 0:
        raise ValueError("mem_budget must be positive")
    if graph_bytes == 0:
        return 1
    for k in range(1, max_shards + 1):
        per_shard = graph_bytes / k
        if k > 1:
            per_shard *= 1.0 + halo_fraction
        if per_shard * WORKING_SET_FACTOR <= mem_budget:
            return k
    return max_shards
