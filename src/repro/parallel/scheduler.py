"""Work-stealing scheduler simulation.

SNAP's minimum-spanning-tree kernel uses "a lazy synchronization scheme
coupled with work-stealing graph traversal to yield a greater
granularity of parallelism" (§3).  This module provides a
discrete-event simulation of a randomized work-stealing runtime: given
a bag of tasks with known costs and ``p`` workers, it computes the
resulting makespan and steal count.  Kernels use it to charge the cost
model a *realistic* (not idealized) phase time for irregular task bags;
the ablation benchmark compares it against static chunking.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StealStats:
    """Outcome of one simulated work-stealing execution."""

    makespan: float
    steals: int
    total_work: float


def simulate_work_stealing(
    task_costs: np.ndarray,
    p: int,
    *,
    steal_cost: float = 2.0,
    seed: int = 0,
) -> StealStats:
    """Simulate randomized work-stealing of ``task_costs`` over ``p`` workers.

    Tasks are dealt round-robin to per-worker deques (the static part);
    an idle worker pays ``steal_cost`` and takes the largest remaining
    task from the most loaded victim (a slightly idealized steal policy
    — real Cilk-style stealing takes from the top of the victim's
    deque; taking the largest gives a deterministic, optimistic bound
    consistent with the cost model's other Graham-style bounds).

    Returns a :class:`StealStats` whose ``makespan / p`` feeds the cost
    model's phase record for schedulers that use stealing.
    """
    costs = np.asarray(task_costs, dtype=np.float64)
    if p < 1:
        raise ValueError("p must be >= 1")
    if np.any(costs < 0):
        raise ValueError("task costs must be non-negative")
    if costs.shape[0] == 0:
        return StealStats(0.0, 0, 0.0)
    total = float(costs.sum())
    if p == 1:
        return StealStats(total, 0, total)

    rng = np.random.default_rng(seed)
    # Deal tasks round-robin; each deque is a list of costs.
    deques: list[list[float]] = [[] for _ in range(p)]
    for i, c in enumerate(costs):
        deques[i % p].append(float(c))
    for dq in deques:
        dq.sort()  # pop() takes the largest local task first

    # Event queue of (time_when_free, worker).
    heap: list[tuple[float, int]] = [(0.0, w) for w in range(p)]
    heapq.heapify(heap)
    steals = 0
    finish = 0.0
    while heap:
        t, w = heapq.heappop(heap)
        if deques[w]:
            c = deques[w].pop()
            finish = max(finish, t + c)
            heapq.heappush(heap, (t + c, w))
            continue
        # Steal: pick the victim with the most remaining tasks.
        victims = [(len(dq), v) for v, dq in enumerate(deques) if dq]
        if not victims:
            finish = max(finish, t)
            continue
        victims.sort()
        # Among the most-loaded, break ties randomly for realism.
        top = [v for cnt, v in victims if cnt == victims[-1][0]]
        victim = int(rng.choice(top))
        c = deques[victim].pop()
        steals += 1
        finish = max(finish, t + steal_cost + c)
        heapq.heappush(heap, (t + steal_cost + c, w))
    return StealStats(finish, steals, total)

