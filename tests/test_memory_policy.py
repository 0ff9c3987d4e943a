"""The process memory policy (``repro/_memory.py``) and the import budget.

Every check runs in a fresh interpreter: what ``import repro`` does to
the allocator, and which modules it loads, cannot be observed from a
pytest process that imported scipy and ran a thousand tests already.
The fault guards count minor page faults (``ru_minflt``), not time — a
generous absolute bound between two readings two to three orders of
magnitude apart (``BENCH_23.json`` → ``minflt_per_call``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

SIX = "import repro, repro.api, repro.cli, repro.serve, repro.sharded, repro.dynamic"


def fresh(code: str, **env) -> dict:
    """Run ``code`` in a new interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, **env}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------
# import budget: scipy loads on the first spectral / road call, not before
# ---------------------------------------------------------------------
# SHA-1 of each result at the commit before the imports moved.
SCIPY_USERS = {
    "spectral_bisection": (
        "from repro.generators import road_network\n"
        "g = road_network(300, 6, rng=np.random.default_rng(9))\n"
        "out = repro.spectral_bisection(g, method='lanczos').astype(np.uint8)",
        "61fedc9d7e9cc51bc15561564452446c56a532ff",
    ),
    "spectral_modularity": (
        "from repro.datasets.karate import karate_club\n"
        "out = repro.spectral_modularity(karate_club()).labels",
        "b5f668361ece7d8650cf385013666395d40808bd",
    ),
    "road_network": (
        "g = repro.generators.road_network(800, 8, rng=np.random.default_rng(0))\n"
        "out = np.concatenate([g.offsets, g.targets])",
        "d5fec148f6208b131bb90bba929df27bb912b8f4",
    ),
}


@pytest.mark.parametrize("name", sorted(SCIPY_USERS))
def test_scipy_loads_on_first_use_only(name):
    call, digest = SCIPY_USERS[name]
    got = fresh(
        f"{SIX}\n"
        "import hashlib, json, sys\n"
        "import numpy as np\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "before = loaded()\n"
        f"{call}\n"
        "print(json.dumps({'before': before, 'after': bool(loaded()),\n"
        "    'sha1': hashlib.sha1(np.ascontiguousarray(out).tobytes()).hexdigest()}))\n"
    )
    assert got["before"] == []
    assert got["after"]
    assert got["sha1"] == digest


# ---------------------------------------------------------------------
# robustness: the policy can never fail ``import repro``
# ---------------------------------------------------------------------
BROKEN_LIBC = """\
import ctypes

class NoMallopt:
    pass

class Refuses:
    mallopt = staticmethod(lambda param, value: 0)

def raises(exc):
    def cdll(name):
        raise exc
    return cdll
"""
BROKEN_CDLL = {
    "mallopt_missing": "lambda name: NoMallopt()",
    "mallopt_returns_0": "lambda name: Refuses()",
    "cdll_raises_oserror": "raises(OSError('no libc'))",
    "cdll_rejects_none": "raises(TypeError('no default library'))",
}


@pytest.mark.parametrize("how", sorted(BROKEN_CDLL))
def test_import_survives_a_libc_without_mallopt(how):
    got = fresh(
        BROKEN_LIBC
        + f"ctypes.CDLL = {BROKEN_CDLL[how]}\n"
        "import json\n"
        "import repro\n"
        "from repro import _memory\n"
        "g = repro.from_edge_list([(0, 1), (1, 2)])\n"
        "print(json.dumps({'applied': _memory.apply(),\n"
        "                  'bfs': repro.bfs(g, 0).distances.tolist()}))\n"
    )
    assert got == {"applied": False, "bfs": [0, 1, 2]}


# Where a 1 MB malloc lands: inside ``[heap]`` only when the mmap
# threshold is above 1 MB.
MALLOC_1MB = """
    import ctypes, json
    import repro
    from repro import _memory
    libc = ctypes.CDLL(None)
    libc.malloc.restype, libc.malloc.argtypes = ctypes.c_void_p, (ctypes.c_size_t,)
    addr = libc.malloc(1 << 20)
    heap = [ln.split()[0].split("-") for ln in open("/proc/self/maps")
            if ln.rstrip().endswith("[heap]")]
    in_heap = any(int(lo, 16) <= addr < int(hi, 16) for lo, hi in heap)
    print(json.dumps({"applied": _memory.apply(), "in_heap": in_heap}))
"""

needs_proc_maps = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)


@needs_proc_maps
@pytest.mark.parametrize(
    "var", ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"]
)
def test_operator_set_glibc_variable_wins(var):
    got = fresh(MALLOC_1MB, **{var: str(256 << 10)})
    assert got["applied"] is False
    if var == "MALLOC_MMAP_THRESHOLD_":
        assert not got["in_heap"]  # still mmapped, as the operator asked


@needs_proc_maps
def test_policy_moves_mb_blocks_onto_the_heap():
    got = fresh(MALLOC_1MB)
    if not got["applied"]:
        pytest.skip("mallopt unavailable: the policy is a no-op here")
    assert got["in_heap"]


# ---------------------------------------------------------------------
# page-fault guards, in this process and in forked pool workers
# ---------------------------------------------------------------------
FAULTS = """
    import json, os, resource
    import numpy as np
    import repro, repro.api as api
    from repro import _memory
    from repro.metrics import triangle_counts
    from repro.parallel import ParallelContext

    g13 = repro.generators.rmat(13, 8.0, rng=np.random.default_rng(1)).as_undirected()
    g12 = repro.generators.rmat(12, 8.0, rng=np.random.default_rng(1)).as_undirected()
    lanes = list(range(32))

    def per_call(fn, calls=3):
        fn()  # warm: the heap grows to the kernel's working set once
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(calls):
            fn()
        return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls

    def measure(_item=None):
        return {
            "pid": os.getpid(),
            "brandes32": per_call(lambda: api.run("brandes", g13, sources=lanes)),
            "triangle_counts": per_call(lambda: triangle_counts(g12)),
        }

    here = measure()
    with ParallelContext(backend="process", n_workers=2) as ctx:
        workers = ctx.map(measure, [0, 1])
    print(json.dumps({"applied": _memory.apply(), "here": here, "workers": workers}))
"""


@pytest.fixture(scope="module")
def faults():
    got = fresh(FAULTS)
    if not got["applied"]:
        pytest.skip("mallopt unavailable: the policy is a no-op here")
    return got


def test_warm_kernels_do_not_refault_their_temporaries(faults):
    # before the policy: 9 195 and 3 964 faults per call
    assert faults["here"]["brandes32"] <= 500
    assert faults["here"]["triangle_counts"] <= 200


def test_forked_pool_workers_inherit_the_policy(faults):
    assert all(w["pid"] != faults["here"]["pid"] for w in faults["workers"])
    for w in faults["workers"]:
        assert w["brandes32"] <= 500
        assert w["triangle_counts"] <= 200
