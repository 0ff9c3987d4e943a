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

Every term is linear in the records, so :class:`CostModel` keeps only
running sums — parallel work ``W``, summed max items ``M``, serial work
``S``, phase, flag-phase, lock, CAS and region counts — and
``modeled_time(p)`` is the closed form ``S + W/p + (1 - 1/p)·M`` plus
each phase's barrier (or flag), lock, CAS and wake-up costs, all
weighted by a :class:`MachineModel`'s calibrated constants.  The
defaults are tuned so that SNAP's kernels land in the paper's reported
speedup range (≈9–13× on 32 threads) when run on the paper's workloads;
the *shape* (which algorithm scales best, where curves flatten) is
produced by the measured profile, not hand-set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.parallel.partitioner import chunk_ranges, imbalance_factor


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

    def barrier_cost(self, p: int) -> float:
        if p <= 1:
            return 0.0
        return self.t_barrier_base + self.t_barrier_log * math.log2(p)

    def lock_cost(self, p: int) -> float:
        if p <= 1:
            return self.t_lock
        return self.t_lock + self.lock_contention * math.log2(p)

    def cas_cost(self, p: int) -> float:
        if p <= 1:
            return self.t_cas
        return self.t_cas + self.cas_contention * math.log2(p)


def phase_of_work(
    work: Optional[np.ndarray], n_workers: int, degree_aware: bool
) -> Optional[tuple[float, float]]:
    """``(work, max_item)`` of a phase whose items cost ``work`` each.

    ``None`` for a phase with no work (nothing is recorded).  The
    phase's ``max_item`` is the largest chunk's *excess* work
    granularity: with degree-aware chunking this is the largest single
    item; without it, the whole largest chunk may be the bottleneck,
    which the model captures via the imbalance factor.  Pure, so a
    worker can compute its phases and the coordinator record them.
    """
    if work is None or len(work) == 0:
        return None
    work = np.asarray(work, dtype=np.float64)
    total = float(work.sum())
    if total == 0.0:
        return None
    if degree_aware:
        # Degree-aware assignment also visits the adjacencies of
        # high-degree vertices in parallel (paper §3), so no single
        # vertex is an indivisible work item.
        return total, 1.0
    imb = imbalance_factor(work, chunk_ranges(work.shape[0], n_workers))
    # An oblivious schedule behaves as if its largest indivisible item
    # were the whole overloaded chunk's excess.
    top = float(work.max())
    return total, max(top, (imb - 1.0) * total / n_workers + top)


class CostModel:
    """A run's work/span/sync profile as eight running sums.

    Kernels charge it during execution (:meth:`phase`,
    :meth:`phase_from_work`, :meth:`serial`, :meth:`lock`, :meth:`cas`,
    :meth:`region`); harnesses read :meth:`modeled_time` /
    :meth:`speedup` / :meth:`summary` afterwards.  Every sum is a float,
    so a profile's size is fixed however much a long-lived context
    (a ``Session``, the daemon) has charged it.
    """

    def __init__(self, n_workers: int = 1, degree_aware: bool = True) -> None:
        self.machine = MachineModel()
        self.n_workers = n_workers
        self.degree_aware = degree_aware
        self.parallel_work = 0.0
        self.max_item_work = 0.0  # the phases' max items, summed
        self.serial_work = 0.0
        self.n_phases = 0.0
        self.n_flag_phases = 0.0
        self.lock_events = 0.0
        self.cas_events = 0.0
        self.regions = 0.0

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def phase(
        self, work: float, max_item: float = 1.0, *, flag_sync: bool = False
    ) -> None:
        """Charge one parallel phase.

        ``work`` is the phase's total work; ``max_item`` the largest
        indivisible chunk (1 when work is perfectly divisible).  With
        ``flag_sync`` the phase completes through point-to-point flags
        (one CAS) instead of a full barrier — the cheaper construct the
        paper's "aggressively reduce locking and barrier constructs"
        engineering targets for very fine-grained phases.
        """
        if work < 0 or max_item < 0:
            raise ValueError("work and max_item must be non-negative")
        self.parallel_work += float(work)
        self.max_item_work += float(min(max_item, work)) if work else 0.0
        self.n_phases += 1
        if flag_sync:
            self.n_flag_phases += 1

    def phase_from_work(self, work: Optional[np.ndarray]) -> None:
        """Charge a phase whose items cost ``work`` each, chunked as this
        model's context chunks (see :func:`phase_of_work`)."""
        ph = phase_of_work(work, self.n_workers, self.degree_aware)
        if ph is not None:
            self.phase(*ph)

    def serial(self, work: float) -> None:
        """Charge work that runs on one processor regardless of ``p``."""
        if work < 0:
            raise ValueError("work must be non-negative")
        self.serial_work += float(work)

    def lock(self, count: int = 1) -> None:
        """Charge ``count`` mutex acquisitions."""
        self.lock_events += float(count)

    def cas(self, count: int = 1) -> None:
        """Charge ``count`` single-word atomic (CAS) operations."""
        self.cas_events += float(count)

    def region(self, count: int = 1) -> None:
        """Charge entry into a parallel region (worker wake-up cost)."""
        self.regions += float(count)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def total_work(self) -> float:
        return self.parallel_work + self.serial_work

    @property
    def span(self) -> float:
        """Critical-path work: serial work plus each phase's max item."""
        return self.serial_work + self.max_item_work

    def modeled_time(self, p: int) -> float:
        """Modeled execution time on ``p`` processors."""
        if p < 1:
            raise ValueError("p must be >= 1")
        mach = self.machine
        t = self.serial_work * mach.t_op
        if p == 1:
            t += self.parallel_work * mach.t_op
        else:
            makespan = self.parallel_work / p + (1.0 - 1.0 / p) * self.max_item_work
            barriers = self.n_phases - self.n_flag_phases
            t += self.regions * mach.t_spawn + makespan * mach.t_op
            t += barriers * mach.barrier_cost(p) + self.n_flag_phases * mach.cas_cost(p)
        t += self.lock_events * mach.lock_cost(p)
        t += self.cas_events * mach.cas_cost(p)
        return t

    def speedup(self, p: int) -> float:
        """Modeled relative speedup ``T(1) / T(p)``."""
        t1 = self.modeled_time(1)
        tp = self.modeled_time(p)
        return t1 / tp if tp > 0 else 1.0

    def summary(self) -> dict[str, float]:
        """Human-readable profile summary."""
        return {
            "parallel_work": self.parallel_work,
            "serial_work": self.serial_work,
            "span": self.span,
            "barriers": self.n_phases,
            "lock_events": self.lock_events,
            "cas_events": self.cas_events,
            "regions": self.regions,
        }
