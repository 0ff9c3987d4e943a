"""Parallel runtime substrate: execution context, cost model, scheduling.

The paper's kernels run with POSIX threads / OpenMP on a Sun Fire T2000.
CPython's GIL makes genuine shared-memory *thread* scaling impossible
for Python-level work, so this package does two things at once:

* it faithfully executes each kernel's *parallel decomposition* (same
  phases, same chunking, same barrier structure) while recording a
  PRAM-style work–span/synchronization profile —
  :class:`~repro.parallel.costmodel.CostModel` turns that profile into
  modeled execution times for ``p`` processors, which is what the
  Figure 2/3 harnesses report (see DESIGN.md §3, substitution 1); and
* it offers **real execution backends** for coarse-grained task maps:
  ``backend="thread"`` (persistent thread pool, for GIL-releasing NumPy
  work) and ``backend="process"`` (persistent process pool with
  zero-copy CSR handoff over POSIX shared memory — see
  :mod:`repro.parallel.shm`), so per-source traversal batches run on
  real cores when the hardware has them.

The two are independent: dispatch charges nothing to the profile, and
each kernel records its own phases, so the profile does not depend on
the backend.
"""

from repro import _lazy
from repro.parallel.chaos import ChaosMonkey, ChaosPlan, Fault
from repro.parallel.costmodel import CostModel, MachineModel
from repro.parallel.resilience import FaultPolicy
from repro.parallel.runtime import ParallelContext
from repro.parallel.partitioner import chunk_ranges, imbalance_factor

# the work-stealing model (kernels.mst's lazy-sync model) and the
# shared-memory handoff (the process backend's) load on first use
__getattr__, __dir__ = _lazy.exports(globals(), {
    "simulate_work_stealing": "repro.parallel.scheduler",
    **dict.fromkeys((
        "GraphSpec", "SharedGraph", "attach_graph", "live_segment_names",
        "share_graph",
    ), "repro.parallel.shm"),
    "shm": "repro.parallel.shm",
})

__all__ = [
    "ChaosMonkey",
    "ChaosPlan",
    "CostModel",
    "Fault",
    "FaultPolicy",
    "MachineModel",
    "ParallelContext",
    "GraphSpec",
    "SharedGraph",
    "attach_graph",
    "live_segment_names",
    "share_graph",
    "chunk_ranges",
    "imbalance_factor",
    "simulate_work_stealing",
]
