"""Import what you run: the package binds its names on first use.

Every check runs in a fresh interpreter (``test_memory_policy.fresh``):
which modules a process has loaded, and in what order the registry
imported them, cannot be observed from a pytest process that has
imported everything already.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from tests.test_memory_policy import fresh

#: Modules that no daemon start, first load, ``import repro`` or
#: closeness lookup uses: each loads only when something reads it.
NOT_ON_THE_SERVE_PATH = (
    "repro.community",
    "repro.partitioning",
    "repro.generators",
    "repro.metrics",
    "repro.datasets",
    "repro.sharded.algorithms",
    "repro.graph.dynamic",
    "repro.graph.hybrid",
    "repro.graph.treap",
)

#: Modules no request has needed yet: ``repro``, ``repro.cli`` and a
#: daemon up to its first load import none of them.  The algorithm
#: packages bind their names lazily, so a ``repro.kernels.*`` import
#: loads that module and its own imports; a registry miss, which a
#: request makes, walks every kernel module before centrality's.
NOT_BEFORE_A_REQUEST = (
    "repro.kernels.biconnected",
    "repro.kernels.mst",
    "repro.kernels.sssp",
    "repro.kernels.connected",
    "repro.kernels.spanning",
    "repro.parallel.scheduler",
    "repro.sharded.bsp",
)


def loaded(far) -> str:
    """Code defining ``loaded()``: the modules of ``far``, and their
    submodules, imported so far."""
    under = tuple(f"{m}." for m in far)
    return (
        "import json, sys\n"
        "def loaded():\n"
        f"    return sorted(m for m in sys.modules if f'{{m}}.'.startswith({under!r}))\n"
    )


#: The registry's algorithms, as the eager package registered them.
ALGORITHM_NAMES = [
    "approximate_vertex_betweenness", "articulation_points", "betweenness",
    "bfs", "biconnected_components", "boruvka_msf", "brandes", "bridges",
    "closeness", "cnm", "connected_components", "degree", "delta_stepping",
    "dijkstra", "edge_betweenness", "girvan_newman", "kruskal_msf",
    "local_resweep", "minimum_spanning_forest", "msbfs",
    "multilevel_bisection", "multilevel_kway",
    "multilevel_recursive_bisection", "pbd", "pla", "pma", "prim_mst",
    "sampled_betweenness", "spectral_bisection", "spectral_kway",
    "spectral_modularity", "st_connectivity", "stream_replay",
]

#: SHA-256 of ``GET /v1/algorithms`` from the eager package.
SCHEMA_SHA256 = "79f373ceaf465008c0e0b0faaa1bf034b3016629d85c758bb79f61e7802fb103"

PACKAGES = ("kernels", "centrality", "community", "partitioning", "dynamic")


# ---------------------------------------------------------------------
# the import boundary
# ---------------------------------------------------------------------
@pytest.mark.parametrize("code,far", [
    ("import repro", NOT_ON_THE_SERVE_PATH + NOT_BEFORE_A_REQUEST),
    ("import repro.cli", NOT_ON_THE_SERVE_PATH + NOT_BEFORE_A_REQUEST),
    # a registry miss imports every kernel module, then closeness's
    ("import repro.api\nrepro.get_algorithm('closeness')", NOT_ON_THE_SERVE_PATH),
], ids=["repro", "repro.cli", "api+closeness"])
def test_import_loads_nothing_off_its_path(code, far):
    got = fresh(f"{code}\n{loaded(far)}print(json.dumps(loaded()))")
    assert got == []


#: The paper's §3 containers, which only their own validators need.
SECTION_3_MODULES = ("repro.graph.dynamic", "repro.graph.hybrid", "repro.graph.treap")


def test_import_qa_loads_no_section_3_container():
    got = fresh(
        f"import repro.qa\n{loaded(SECTION_3_MODULES)}"
        "print(json.dumps(loaded()))"
    )
    assert got == []


#: The process backend's stack: the shared-memory handoff, the process
#: pool and OpenSSL (``shared_memory`` -> ``secrets`` -> ``hashlib``).
PROCESS_STACK = (
    "multiprocessing.shared_memory",
    "concurrent.futures.process",
    "repro.parallel.shm",
    "_hashlib",
)

#: The HTTP daemon and what its stdlib server and client pull in.
HTTP_STACK = ("repro.serve.server", "http.server", "ssl", "email")


@pytest.fixture(scope="module")
def shard_set_dir(tmp_path_factory):
    from repro.datasets.karate import karate_club
    from repro.sharded import build_shard_set

    out = tmp_path_factory.mktemp("imports") / "karate.shards"
    build_shard_set(karate_club(), out, k=2)
    return out


def test_serial_map_loads_no_process_stack():
    got = fresh(
        f"{loaded(PROCESS_STACK)}"
        "from repro.parallel import ParallelContext\n"
        "out = ParallelContext().map(abs, [-1, 2])\n"
        "print(json.dumps([out, loaded()]))"
    )
    assert got == [[1, 2], []]


def test_serial_sharded_msbfs_loads_no_process_stack(shard_set_dir):
    got = fresh(
        f"{loaded(PROCESS_STACK)}"
        "import repro.sharded\n"
        f"ss = repro.sharded.open_shard_set({str(shard_set_dir)!r})\n"
        "repro.sharded.sharded_msbfs(ss, [0, 5])\n"
        "print(json.dumps(loaded()))"
    )
    assert got == []


def test_cli_analyze_loads_no_process_stack(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n2 0\n2 3\n")
    got = fresh(
        f"{loaded(PROCESS_STACK)}"
        "from repro.cli import main\n"
        f"code = main(['analyze', {str(path)!r}])\n"
        "print()\n"
        "print(json.dumps([code, loaded()]))"
    )
    assert got == [0, []]


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_session_loads_no_http_daemon(backend):
    got = fresh(
        f"{loaded(HTTP_STACK)}"
        "from repro.api import Session\n"
        "from repro.cli_options import ExecutionOptions\n"
        "from repro.datasets.karate import karate_club\n"
        f"opts = ExecutionOptions(backend={backend!r}, workers=2)\n"
        "with Session(options=opts) as s:\n"
        "    s.add('g', karate_club())\n"
        "    out = s.run('closeness', 'g', sources=[0, 5]).value\n"
        "print(json.dumps([out.tolist(), loaded()]))"
    )
    from repro.centrality import closeness_centrality
    from repro.datasets.karate import karate_club

    expect = closeness_centrality(karate_club(), sources=[0, 5])
    assert got == [expect.tolist(), []]


def test_process_workers_inherit_the_shm_module():
    """shm loads at the first pool, before the fork, so a worker's first
    task finds it already imported instead of importing it per worker."""
    got = fresh(
        "import json, sys\n"
        "from repro.parallel import ParallelContext\n"
        "def seen(_):\n"
        "    return 'repro.parallel.shm' in sys.modules\n"
        "with ParallelContext(2, backend='process') as ctx:\n"
        "    before = 'repro.parallel.shm' in sys.modules\n"
        "    out = ctx.map(seen, [0, 1])\n"
        "print(json.dumps([before, out]))"
    )
    assert got == [False, [True, True]]


def test_sharded_msbfs_loads_no_unused_community_module(shard_set_dir):
    """The sharded kernels import the pLA steps they share with the
    in-core code, not the whole community package."""
    unused = tuple(f"repro.community.{m}" for m in ("cnm", "pma", "gn", "pbd", "spectral_mod"))
    got = fresh(
        f"{loaded(unused)}"
        "import repro.sharded\n"
        f"ss = repro.sharded.open_shard_set({str(shard_set_dir)!r})\n"
        "repro.sharded.sharded_msbfs(ss, [0, 5])\n"
        "print(json.dumps(loaded()))"
    )
    assert got == []


#: A single-argument ``np.unique`` imports numpy's masked arrays
#: (``np.ma.is_masked``); ``kernels.segments.distinct`` does not.
MASKED_ARRAYS = ("numpy.ma",)

RUNS = {
    "serial-traversal": (
        "from repro.centrality import brandes, closeness_centrality\n"
        "from repro.generators import rmat\n"
        "from repro.kernels import msbfs\n"
        "g = rmat(9, 8, rng=np.random.default_rng(1))\n"
        "msbfs(g, [0, 1, 2])\n"
        "closeness_centrality(g, sources=[0, 3])\n"
        "brandes(g, sources=list(range(8)))\n"
    ),
    "sharded": (
        "import repro.sharded as S\n"
        "ss = S.open_shard_set(SHARDS)\n"
        "S.sharded_msbfs(ss, [0, 5])\n"
        "S.sharded_closeness(ss, sources=[0, 5])\n"
        "S.sharded_connected_components(ss)\n"
    ),
    "pla+kway": (
        "from repro.community import pla\n"
        "from repro.generators import rmat\n"
        "from repro.partitioning import multilevel_kway\n"
        "g = rmat(9, 8, rng=np.random.default_rng(1))\n"
        "pla(g, seed=1)\n"
        "multilevel_kway(g, 4, seed=1)\n"
    ),
    "session": (
        "from repro.api import Session\n"
        "from repro.datasets.karate import karate_club\n"
        "with Session() as s:\n"
        "    s.add('g', karate_club())\n"
        "    s.run('closeness', 'g', sources=[0, 5])\n"
        "    s.ingest('g', [['add', 0, 9, 1], ['delete', 0, 1, 1]])\n"
    ),
}


def test_src_calls_no_single_argument_np_unique():
    """Outside ``qa/``, ``src/repro`` takes distinct values from
    ``distinct``; ``np.unique`` only with an index, inverse or counts."""
    root = Path(__file__).resolve().parents[1] / "src" / "repro"
    extras = {"return_index", "return_inverse", "return_counts"}
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).parts[0] == "qa":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and not extras & {k.arg for k in node.keywords}):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("run", RUNS)
def test_runs_load_no_masked_arrays(run, shard_set_dir):
    got = fresh(
        f"{loaded(MASKED_ARRAYS)}"
        f"import numpy as np\nSHARDS = {str(shard_set_dir)!r}\n{RUNS[run]}"
        "print(json.dumps(loaded()))"
    )
    assert got == []


def test_closeness_worker_loads_only_closeness_and_its_kernels():
    """A worker forked before any algorithm ran imports closeness (and
    the BFS kernel) when it unpickles its first task, nothing else of
    the algorithm packages."""
    far = ("repro.centrality.betweenness", "repro.kernels.mst", "numpy.ma")
    got = fresh(
        f"{loaded(far + ('repro.centrality.closeness',))}"
        "from repro.parallel import ParallelContext\n"
        "def seen(_):\n"
        "    return loaded()\n"
        "with ParallelContext(2, backend='process') as ctx:\n"
        "    ctx.map(abs, [0, 1])\n"
        "    from repro.centrality import closeness_centrality\n"
        "    from repro.datasets.karate import karate_club\n"
        "    closeness_centrality(karate_club(), ctx=ctx)\n"
        "    out = ctx.map(seen, range(4))\n"
        "print(json.dumps(sorted(set(m for mods in out for m in mods))))"
    )
    assert got == ["repro.centrality.closeness"]


def test_daemon_first_load_loads_nothing_off_its_path(tmp_path):
    from repro.centrality import closeness_centrality
    from repro.graph import from_edge_list

    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    got = fresh(
        f"{loaded(NOT_ON_THE_SERVE_PATH + NOT_BEFORE_A_REQUEST)}"
        "from repro.serve.client import ServeClient\n"
        "from repro.serve.server import ReproServer, ServeConfig\n"
        "with ReproServer(ServeConfig(port=0)) as srv:\n"
        "    srv.start_background()\n"
        "    at_listen = loaded()\n"
        "    with ServeClient(*srv.address) as c:\n"
        f"        c.load({str(path)!r}, name='g')\n"
        "        at_load = loaded()\n"
        "        value = c.submit('g', 'closeness', sources=[0])['value']\n"
        f"{loaded(NOT_ON_THE_SERVE_PATH)}"
        "print(json.dumps([at_listen, at_load, loaded(), value]))"
    )
    expect = closeness_centrality(from_edge_list(edges), sources=[0])
    assert got == [[], [], [], expect.tolist()]


# ---------------------------------------------------------------------
# the registry contract
# ---------------------------------------------------------------------
def test_whole_registry_reads_register_every_algorithm():
    got = fresh(
        "import json\n"
        "from repro.obs.api import ALGORITHMS, algorithm_names\n"
        "reads = [len(ALGORITHMS), 'pla' in ALGORITHMS, sorted(ALGORITHMS),\n"
        "         algorithm_names(), sorted(ALGORITHMS.keys()),\n"
        "         len(ALGORITHMS.values()), len(ALGORITHMS.items())]\n"
        "print(json.dumps(reads))"
    )
    assert got == [33, True, ALGORITHM_NAMES, ALGORITHM_NAMES,
                   ALGORITHM_NAMES, 33, 33]
    for read in ("len(ALGORITHMS)", "'bfs' in ALGORITHMS", "list(ALGORITHMS)",
                 "list(ALGORITHMS.keys())", "list(ALGORITHMS.values())",
                 "list(ALGORITHMS.items())", "algorithm_names()"):
        n = fresh(
            "import json\n"
            "from repro.obs.api import ALGORITHMS, algorithm_names\n"
            f"{read}\n"
            "print(json.dumps(dict.__len__(ALGORITHMS)))"
        )
        assert n == 33, read


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
def test_each_name_resolves_in_package_order(name):
    """A miss imports the algorithm packages in one fixed order, up to
    the one that registers the name and no further."""
    got = fresh(
        "import json, sys\n"
        "from repro.obs.api import get_algorithm\n"
        f"fn = get_algorithm({name!r})\n"
        f"pkgs = [p for p in {PACKAGES!r} if 'repro.' + p in sys.modules]\n"
        "print(json.dumps([fn.__algorithm__, fn.__module__, pkgs]))"
    )
    algorithm, module, packages = got
    assert algorithm == name
    home = module.split(".")[1]
    assert packages == list(PACKAGES[: PACKAGES.index(home) + 1])


def test_unknown_name_lists_every_algorithm():
    got = fresh(
        "import json\n"
        "from repro.obs.api import get_algorithm\n"
        "try:\n"
        "    get_algorithm('nope')\n"
        "except KeyError as exc:\n"
        "    print(json.dumps(exc.args[0]))"
    )
    assert got == f"unknown algorithm 'nope'; known: {', '.join(ALGORITHM_NAMES)}"


def test_threads_resolving_at_once_finish():
    names = ["stream_replay", "spectral_kway", "pla", "closeness", "bfs",
             "multilevel_kway", "cnm", "brandes"]
    got = fresh(
        "import json, threading, time\n"
        "from repro.obs.api import get_algorithm\n"
        f"names = {names!r}\n"
        "start, found = threading.Barrier(len(names)), {}\n"
        "def resolve(name):\n"
        "    start.wait()\n"
        "    found[name] = get_algorithm(name).__algorithm__\n"
        "threads = [threading.Thread(target=resolve, args=(n,), daemon=True)\n"
        "           for n in names]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "deadline = time.monotonic() + 10\n"
        "for t in threads:\n"
        "    t.join(max(0.0, deadline - time.monotonic()))\n"
        "print(json.dumps(found))"
    )
    assert got == {n: n for n in names}


def test_algorithms_schema_is_the_first_request():
    got = fresh(
        "import hashlib, http.client, json\n"
        "from repro.serve.server import ReproServer, ServeConfig\n"
        "with ReproServer(ServeConfig(port=0)) as srv:\n"
        "    srv.start_background()\n"
        "    conn = http.client.HTTPConnection(*srv.address, timeout=30)\n"
        "    conn.request('GET', '/v1/algorithms')\n"
        "    body = conn.getresponse().read()\n"
        "    conn.close()\n"
        "print(json.dumps(hashlib.sha256(body).hexdigest()))"
    )
    assert got == SCHEMA_SHA256
