"""What every workload shares: the ``Workload`` interface, the round
protocol and the small helpers both use.

A round is the same for every workload; only the process that hosts it
differs (``child.py`` in a fresh interpreter for the in-core workloads,
the runner itself for the serve workload, whose program under test is
the daemon it spawns):

1. one timed **setup pass**, from the spawn timestamp (so interpreter
   start-up and ``import repro`` are inside it) to "ready for the first
   op";
2. one untimed warm-up call per op class (the first call of the first
   class is kept as ``cold.first_op``);
3. each class as one contiguous block of ``reps`` timed calls with
   tracing off — and, in a traced round, a second block with harness
   spans on, whose difference is the tracing overhead;
4. high-water RSS, then — outside every timed region — output digests,
   verification and (traced rounds) the layer probes; teardown always.

This module imports neither numpy nor ``repro`` at import time, so a
fresh child really pays those imports inside its setup pass.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
import zlib
from pathlib import Path
from statistics import median
from types import SimpleNamespace
from typing import Callable

ROUNDS = 6          # fresh processes per untraced run
TRACED_ROUNDS = 2   # fresh processes per traced run
RUN_SECONDS = 20    # measured seconds the reps_per_round are sized for


def digest(obj) -> int:
    """Order-sensitive CRC of an op's output (arrays, results, JSON)."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        head = f"{arr.dtype.str}{arr.shape}".encode()
        return zlib.crc32(arr.view(np.uint8).reshape(-1), zlib.crc32(head))
    for attrs in (("distances",), ("vertex", "edge"), ("labels", "modularity")):
        if all(hasattr(obj, a) for a in attrs):
            crc = 0
            for a in attrs:
                crc = zlib.crc32(str(digest(getattr(obj, a))).encode(), crc)
            return crc
    return zlib.crc32(json.dumps(obj, sort_keys=True).encode())


def vm_hwm_kb(pid="self") -> int:
    """High-water RSS of a live process (``ru_maxrss`` is inherited
    across fork+exec on Linux, ``VmHWM`` is not)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def timed(fn: Callable, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def read_edges(path: str):
    import numpy as np

    flat = np.array(Path(path).read_text().split(), dtype=np.int64)
    return flat[0::2], flat[1::2]


def ref_graph(path: str, n: int):
    from repro.qa import oracles

    u, v = read_edges(path)
    return oracles.RefGraph(n, zip(u.tolist(), v.tolist()))


def probe(tr, out: dict, name: str, fn: Callable, reps: int = 3,
          inner: int = 1) -> None:
    """Warm ``fn`` once, then record under ``name`` the median over
    ``reps`` timings of ``inner`` back-to-back calls (per call)."""
    fn()
    with tr.span(name):
        out[name] = median(
            t / inner
            for t in timed(lambda: [fn() for _ in range(inner)], reps)
        )


class Workload:
    """One set of inputs plus the op classes timed on it."""

    name = ""
    why = ""
    #: op class -> reps_per_round, in block order
    classes: dict = {}
    #: op class -> requests one call makes (absent = 1); a call that
    #: fails counts all of them as failed
    requests: dict = {}
    #: classes whose answer depends on the call index (so only rounds,
    #: not calls, must agree)
    stateful: frozenset = frozenset()
    #: load-generating threads the workload uses (comparability check)
    load_threads = 1
    #: the round runs in the runner process, because the program under
    #: test is a process the workload's ``setup`` spawns itself
    in_runner = False

    def generate(self, seed: int, tmp: Path) -> dict:
        """Seeded inputs (runner side, untimed)."""
        raise NotImplementedError

    def setup(self, spec: dict, tr) -> SimpleNamespace:
        """Everything a user pays before the first answer."""
        raise NotImplementedError

    def ops(self, st) -> dict:
        """Op class -> zero-argument callable returning the output."""
        raise NotImplementedError

    def digest(self, result) -> int:
        return digest(result)

    def rss_kb(self, st) -> int:
        return vm_hwm_kb()

    def verify(self, st, results: dict) -> list[str]:
        """Problems with the outputs, checked against
        ``repro.qa.oracles`` / the in-core library path."""
        raise NotImplementedError

    def counts(self, st, results: dict) -> dict:
        return {}

    def probes(self, st, tr, results: dict) -> dict:
        return {}

    def teardown(self, st) -> None:
        pass


def run_block(wl: Workload, fn, reps, tr, cls, rec) -> list[float]:
    """``reps`` back-to-back calls of one class; a call that raises is a
    failed op and contributes no latency sample."""
    samples = []
    requests = wl.requests.get(cls, 1)
    for i in range(reps):
        rec["attempted"] += requests
        try:
            with tr.span(f"op.{cls}", op=f"{cls}#{i}"):
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - op boundary: count and go on
            rec["failed"] += requests
            rec["errors"].append(f"{cls}: {traceback.format_exc(limit=3)}")
            continue
        samples.append(dt)
        rec["results"][cls] = result
        rec["digests"].setdefault(cls, []).append(wl.digest(result))
    return samples


def run_round(wl: Workload, spec: dict, t_spawn: float) -> dict:
    """One round of ``wl`` in this process (see the module docstring)."""
    from spans import NullTracer, Tracer

    off = NullTracer()
    tr = Tracer(wl.name) if spec["traced"] else off
    rec = {
        "attempted": 0, "failed": 0, "errors": [], "verify_errors": [],
        "results": {}, "digests": {}, "samples": {}, "traced_samples": {},
        "warm": {}, "counts": {}, "probes": {}, "shm_leaked": [],
    }
    st = None
    try:
        with tr.span("setup"):
            st = wl.setup(spec, tr)
        rec["setup_s"] = time.time() - t_spawn
        ops = wl.ops(st)
        for cls in spec["reps"]:
            rec["warm"][cls] = sum(run_block(wl, ops[cls], 1, off, cls, rec))
        with tr.span("blocks"):
            for cls, reps in spec["reps"].items():
                rec["samples"][cls] = run_block(wl, ops[cls], reps, off, cls, rec)
                if spec["traced"]:
                    rec["traced_samples"][cls] = run_block(
                        wl, ops[cls], reps, tr, cls, rec
                    )
        rec["rss_kb"] = wl.rss_kb(st)
        if not rec["failed"]:
            if spec["verify"]:
                rec["verify_errors"] = wl.verify(st, rec["results"])
                rec["failed"] += len(rec["verify_errors"])
            rec["counts"] = wl.counts(st, rec["results"])
            if spec["traced"] and not rec["failed"]:
                with tr.span("probes"):
                    rec["probes"] = wl.probes(st, tr, rec["results"])
    except Exception:  # noqa: BLE001 - report, never hang the runner
        rec["failed"] += 1
        rec["errors"].append(traceback.format_exc(limit=6))
    finally:
        if st is not None:
            wl.teardown(st)
    if "repro.parallel.shm" in sys.modules:
        rec["shm_leaked"] = list(
            sys.modules["repro.parallel.shm"].live_segment_names()
        )
    rec["spans"] = tr.spans
    del rec["results"]
    return rec
