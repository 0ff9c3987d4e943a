"""Out-of-core shard sets: round-trip, parity, recovery, admission.

The contract under test (DESIGN §12): a graph partitioned into
memory-mapped shards and run shard-at-a-time under the BSP superstep
driver produces results **bit-identical** to the in-core kernels — on
every backend, through worker crashes, and under a memory budget the
in-core path cannot meet.
"""

from __future__ import annotations

import ast
import hashlib
import json
import mmap
import os
import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.centrality.closeness import closeness_centrality
from repro.community.modularity import modularity
from repro.community.pla import pla
from repro.datasets.karate import karate_club
from repro.errors import GraphFormatError, GraphStructureError, MemoryBudgetExceeded
from repro.generators.rmat import rmat
from repro.graph import from_edge_array
from repro.graph.csr import Graph
from repro.graph.builder import contract
from repro.kernels import connected
from repro.kernels.bfs import msbfs
from repro.kernels.connected import connected_components
from repro.parallel import ChaosPlan, Fault, FaultPolicy, ParallelContext
from repro.sharded import (
    BSPCheckpointer,
    BSPDriver,
    MemoryBudget,
    build_shard_set,
    in_core_nbytes,
    is_shard_set_path,
    load_shard,
    open_shard_set,
    sharded_closeness,
    sharded_connected_components,
    sharded_contract,
    sharded_modularity,
    sharded_msbfs,
    sharded_pla,
    shards,
)
from repro.sharded.shards import recommend_shards


@pytest.fixture(scope="module")
def karate():
    return karate_club()


@pytest.fixture(scope="module")
def rmat10():
    return rmat(10, 8.0, rng=np.random.default_rng(7))


def _backing(arr):
    """The object whose memory ``arr`` ultimately views."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


def _weighted_messy():
    """Weighted graph with self-loops, duplicates and isolated vertices."""
    rng = np.random.default_rng(3)
    n = 60
    u = rng.integers(0, n, size=140)
    v = rng.integers(0, n, size=140)
    w = rng.integers(1, 6, size=140).astype(np.float64)
    return from_edge_array(n + 5, u, v, weights=w, directed=False,
                           dedupe=True, drop_self_loops=False)


def _float_weighted():
    """``_weighted_messy``'s shape with non-integer weights, whose sums
    depend on the order they are added in."""
    rng = np.random.default_rng(0)
    n = 60
    u = rng.integers(0, n, size=140)
    v = rng.integers(0, n, size=140)
    w = rng.random(140) * 5.0
    return from_edge_array(n + 5, u, v, weights=w, directed=False,
                           dedupe=True, drop_self_loops=False)


# ---------------------------------------------------------------------------
# Round-trip: build -> write -> mmap-load -> stitch, bit-exact
# ---------------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_stitch_bit_exact(self, karate, tmp_path, k):
        ss = build_shard_set(karate, tmp_path / f"k{k}", k=k)
        g = ss.stitch()
        assert g.offsets.tobytes() == karate.offsets.tobytes()
        assert g.targets.tobytes() == karate.targets.tobytes()
        assert g.n_edges == karate.n_edges
        assert ss.verify(deep=True) == []

    def test_shards_are_memory_mapped(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=3)
        sh = ss.shard(0)
        # The CSR payload must come off disk as a mapping, not a copy:
        # read-only views over ONE mmap of the shard file.
        backing = {id(_backing(a)) for a in (sh.offsets, sh.targets, sh.owned)}
        assert len(backing) == 1
        assert isinstance(_backing(sh.offsets), mmap.mmap)
        assert not sh.targets.flags.writeable
        assert sh.n_owned + ss.shard(1).n_owned + ss.shard(2).n_owned == 34

    def test_weighted_self_loops_isolated(self, tmp_path):
        g = _weighted_messy()
        ss = build_shard_set(g, tmp_path / "w", k=4)
        st_g = ss.stitch()
        assert st_g.offsets.tobytes() == g.offsets.tobytes()
        assert st_g.targets.tobytes() == g.targets.tobytes()
        assert st_g.weights.tobytes() == g.weights.tobytes()
        assert float(ss.total_weight) == float(g.edge_weights().sum())

    def test_directed_refused(self, tmp_path):
        g = from_edge_array(3, np.array([0, 1]), np.array([1, 2]),
                            directed=True)
        with pytest.raises(GraphStructureError):
            build_shard_set(g, tmp_path / "d", k=2)

    def test_directed_manifest_refused(self, karate, tmp_path):
        """Opening is the one place a directed manifest is refused: the
        kernels all assume symmetric arcs."""
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        manifest = ss.root / shards.MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "directed": True}))
        with pytest.raises(GraphFormatError, match="directed"):
            open_shard_set(ss.root)

    def test_load_single_shard(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        sh = load_shard(ss.shard_path(0), index=0)
        assert sh.n_owned == ss.shard(0).n_owned
        assert np.array_equal(sh.owned, ss.shard(0).owned)

    def test_is_shard_set_path(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        assert is_shard_set_path(ss.root)
        assert is_shard_set_path(ss.root / "manifest.json")
        assert not is_shard_set_path(tmp_path)


def _weighted_rmat10_labels():
    """A weighted R-MAT 10 under random, non-contiguous shard labels."""
    g = rmat(10, 8.0, rng=np.random.default_rng(5))
    u, v = g.edge_endpoints()
    rng = np.random.default_rng(6)
    w = rng.integers(1, 9, size=u.shape[0]).astype(np.float64)
    wg = from_edge_array(g.n_vertices, u, v, weights=w, directed=False)
    return wg, {"labels": rng.integers(0, 4, size=g.n_vertices)}


def _no_arc_edge_ids():
    """K(3,5) plus an isolated vertex, built by hand without an arc→edge
    map: each edge's id is the index of its arc with u <= v."""
    left, right = 3, 5
    rows = ([list(range(left, left + right))] * left
            + [list(range(left))] * right + [[]])
    offsets = np.cumsum([0] + [len(r) for r in rows])
    targets = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows])
    return Graph(offsets, targets, directed=False), {"k": 2, "method": "block"}


#: SHA-256 of ``json.dumps(manifest, sort_keys=True)`` — every CRC, byte
#: count and statistic — as the ``np.savez`` builder wrote each set.
PINNED_MANIFESTS = {
    "karate_block_k3": (
        lambda: (karate_club(), {"k": 3, "method": "block"}),
        "646ec96375d48e2ff5780f1255ab02c70d2d49fc30707be8bfebf1660d3608cd"),
    "rmat10_multilevel_k4": (
        lambda: (rmat(10, 8.0, rng=np.random.default_rng(7)), {"k": 4}),
        "e183a17208bd19ca766ab9b547f24c2b00111ad557c09b0b0f34e4c05a8671ed"),
    "weighted_rmat10_labels": (
        _weighted_rmat10_labels,
        "5be54252c27caad78a0665ad2a8f783520e47fd9aa99bd0b54c1a87e8271b1ab"),
    "weighted_self_loops_isolated_k4": (
        lambda: (_weighted_messy(), {"k": 4}),
        "7f8f93df6a0218cab9944e571cd34d44251c2597ab2dce0e6936f665affb5a12"),
    "no_arc_edge_ids": (
        _no_arc_edge_ids,
        "b8028c61f4b93f51bce704f7f6d24290d31038ca2613a56ad5493710d06c488c"),
}


@pytest.mark.parametrize("name", list(PINNED_MANIFESTS))
def test_build_output_is_pinned(name, tmp_path):
    """The builder writes the same files it always wrote, and every file
    reads the same through ``np.load`` and the memory-mapped reader."""
    make, want = PINNED_MANIFESTS[name]
    g, kwargs = make()
    ss = build_shard_set(g, tmp_path / "s", **kwargs)
    doc = json.dumps(ss.manifest, sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == want
    for path in sorted(ss.root.glob("*.npz")):
        mapped = shards.mmap_npz(path)
        with np.load(path) as eager:
            assert eager.files == list(mapped)
            for member in eager.files:
                assert eager[member].dtype == mapped[member].dtype
                assert np.array_equal(eager[member], mapped[member])


graph_edges = st.lists(
    st.tuples(st.integers(0, 19), st.integers(0, 19),
              st.integers(1, 5)),
    min_size=0, max_size=60,
)


@given(graph_edges, st.booleans(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(edges, weighted, k):
    """build -> write -> mmap-load -> stitch is the identity, bit-for-bit,
    including isolated vertices, self-loops and weighted graphs."""
    import tempfile

    n = 20
    u = np.asarray([e[0] for e in edges], dtype=np.int64)
    v = np.asarray([e[1] for e in edges], dtype=np.int64)
    w = (np.asarray([float(e[2]) for e in edges])
         if weighted and edges else None)
    g = from_edge_array(n, u, v, weights=w, directed=False,
                        dedupe=True, drop_self_loops=False)
    with tempfile.TemporaryDirectory(prefix="shard-prop-") as tmp:
        ss = build_shard_set(g, os.path.join(tmp, "s"), k=k)
        reopened = open_shard_set(ss.root)
        stitched = reopened.stitch()
        assert stitched.offsets.tobytes() == g.offsets.tobytes()
        assert stitched.targets.tobytes() == g.targets.tobytes()
        assert stitched.n_edges == g.n_edges
        if g.weights is not None:
            assert stitched.weights.tobytes() == g.weights.tobytes()
        assert reopened.verify(deep=True) == []


# ---------------------------------------------------------------------------
# Verification / corruption detection
# ---------------------------------------------------------------------------
class TestVerify:
    def test_corruption_detected(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        path = ss.shard_path(1)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one payload bit
        path.write_bytes(bytes(blob))
        fresh = open_shard_set(ss.root)
        assert fresh.verify() != []

    def test_missing_file_detected(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        ss.shard_path(0).unlink()
        assert open_shard_set(ss.root).verify() != []

    @staticmethod
    def _leave_checkpoint(ss, appends: int = 1):
        """Park one valid BSP checkpoint log of ``appends`` appends
        under the shard-set root; returns its path and the file size
        after each append."""
        drv = BSPDriver(ss, checkpointer=BSPCheckpointer(
            ss.root / ".checkpoints", every=1))
        drv.resume("msbfs", {"n": ss.n_vertices})
        path, sizes = drv.checkpointer.path_for("msbfs"), []
        for i in range(appends):
            drv.last_completed = i
            assert drv.maybe_checkpoint("msbfs", {"level": i, "pad": "x" * 64})
            sizes.append(path.stat().st_size)
        return path, sizes

    def test_valid_checkpoint_passes_verify(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        self._leave_checkpoint(ss)
        assert open_shard_set(ss.root).verify() == []

    def test_checkpoint_bit_flip_detected(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        path, _ = self._leave_checkpoint(ss)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        problems = open_shard_set(ss.root).verify()
        assert problems and str(path) in problems[0]

    def test_checkpoint_truncation_detected(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        path, _ = self._leave_checkpoint(ss)
        path.write_bytes(path.read_bytes()[:11])
        problems = open_shard_set(ss.root).verify()
        assert problems and "truncated" in problems[0]

    def test_verify_walks_every_record(self, karate, tmp_path):
        """A flip in a middle record and a torn final record are both
        named: verify reads past the first record."""
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        path, sizes = self._leave_checkpoint(ss, appends=3)
        assert open_shard_set(ss.root).verify() == []
        blob = path.read_bytes()
        path.write_bytes(blob[: sizes[2] - 4])
        [problem] = open_shard_set(ss.root).verify()
        assert str(path) in problem and "truncated final record" in problem
        flipped = bytearray(blob)
        flipped[sizes[1] - 4] ^= 0xFF  # the second append's payload
        path.write_bytes(bytes(flipped))
        [problem] = open_shard_set(ss.root).verify()
        assert str(path) in problem and "payload CRC" in problem


# ---------------------------------------------------------------------------
# Parity with the in-core kernels (bit-identical)
# ---------------------------------------------------------------------------
class TestParity:
    @pytest.fixture(scope="class",
                    params=["karate", "rmat10", "weighted", "float"])
    def pair(self, request, karate, rmat10, tmp_path_factory):
        g = {"karate": karate, "rmat10": rmat10,
             "weighted": _weighted_messy(),
             "float": _float_weighted()}[request.param]
        root = tmp_path_factory.mktemp("parity") / request.param
        return g, build_shard_set(g, root, k=3)

    def test_msbfs(self, pair):
        g, ss = pair
        sources = [0, 1, g.n_vertices - 1]
        ref = msbfs(g, sources)
        got = sharded_msbfs(ss, sources)
        assert np.array_equal(got.distances, ref.distances)
        assert got.n_levels == ref.n_levels
        assert got.distances.dtype == ref.distances.dtype

    def test_connected_components(self, pair):
        g, ss = pair
        assert np.array_equal(
            sharded_connected_components(ss), connected_components(g)
        )

    def test_closeness(self, pair):
        g, ss = pair
        if g.is_weighted:
            with pytest.raises(GraphStructureError):
                sharded_closeness(ss)
            return
        ref = closeness_centrality(g)
        got = sharded_closeness(ss)
        assert got.tobytes() == ref.tobytes()

    def test_modularity(self, pair):
        g, ss = pair
        labels = np.arange(g.n_vertices, dtype=np.int64) % 4
        assert sharded_modularity(ss, labels) == modularity(g, labels)

    def test_pla(self, pair):
        g, ss = pair
        ref = pla(g, multilevel=True)
        got = sharded_pla(ss)
        assert got.modularity == ref.modularity
        assert np.array_equal(got.labels, ref.labels)
        assert got.extras == ref.extras

    def test_chunked_streams_match(self, pair):
        """Chunk size must not change a single bit of the result."""
        g, ss = pair
        labels = np.arange(g.n_vertices, dtype=np.int64) % 3
        assert (sharded_modularity(ss, labels, chunk_edges=7)
                == modularity(g, labels))

    def test_chunked_contract_matches(self, pair):
        g, ss = pair
        labels = np.arange(g.n_vertices, dtype=np.int64) % 5
        ref, ref_map = contract(g, labels)
        got, got_map = sharded_contract(ss, labels, chunk_edges=7)
        assert np.array_equal(got_map, ref_map)
        assert got.offsets.tobytes() == ref.offsets.tobytes()
        assert got.targets.tobytes() == ref.targets.tobytes()
        assert got.weights.tobytes() == ref.weights.tobytes()

    def test_pla_over_chunked_stream(self, pair, monkeypatch):
        """The guard and the contraction read the edge stream in several
        chunks (the default chunk size is read at call time)."""
        g, ss = pair
        monkeypatch.setattr(shards, "DEFAULT_CHUNK_EDGES", ss.n_edges // 3 + 1)
        assert len(list(ss.edge_chunks())) == 3
        ref = pla(g, multilevel=True)
        got = sharded_pla(ss)
        assert got.modularity == ref.modularity
        assert np.array_equal(got.labels, ref.labels)
        assert got.extras == ref.extras


def test_pla_span_levels_continue_the_in_core_numbering(rmat10, tmp_path):
    """Sharded pLA contracts level 0 out of core, then runs the in-core
    level loop from level 1: its ``contract-level`` spans are the
    in-core ones without level 0."""
    from repro.obs.tracer import Tracer

    def levels(run):
        tr = Tracer()
        with ParallelContext(1, backend="serial", trace=tr) as ctx:
            run(ctx)
        return [sp.attrs["level"] for _, sp in tr.finish().walk()
                if sp.name == "contract-level"]

    ss = build_shard_set(rmat10, tmp_path / "ss", k=3, method="block")
    in_core = levels(lambda ctx: pla(rmat10, multilevel=True, ctx=ctx))
    assert in_core == [0, 1, 2, 3]
    assert levels(lambda ctx: sharded_pla(ss, ctx=ctx)) == in_core[1:]


def _reversed_path(n):
    """The path 0 - (n-1) - (n-2) - ... - 1."""
    order = [0, *range(n - 1, 0, -1)]
    return from_edge_array(n, np.array(order[:-1]), np.array(order[1:]))


def _relabelled_grid(side):
    """A side x side grid with its vertex ids randomly permuted."""
    ids = np.arange(side * side).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    perm = np.random.default_rng(0).permutation(side * side)
    return from_edge_array(side * side, perm[u], perm[v])


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _reversed_path(1000), id="reversed-path"),
    pytest.param(lambda: _relabelled_grid(64), id="relabelled-grid"),
])
def test_components_supersteps_are_in_core_rounds(make, tmp_path, monkeypatch):
    """Sharded components runs one superstep per in-core hook round, plus
    the one that finds nothing left to hook (the in-core loop's last
    cross check) — not a superstep per hop of a label walk."""
    g = make()
    hooks, hook_round = [], connected._hook_round

    def counting(*args):
        hooks.append(None)
        return hook_round(*args)

    monkeypatch.setattr(connected, "_hook_round", counting)
    ref = connected_components(g)
    ss = build_shard_set(g, tmp_path / "ss", k=4)
    drv = BSPDriver(ss)
    assert np.array_equal(sharded_connected_components(ss, driver=drv), ref)
    assert len(drv.stats) == len(hooks) + 1


def test_sharded_kernels_call_the_in_core_steps():
    """The sharded kernels call the in-core steps — the hook round, the
    modularity fold, the contraction merge, the pLA arc helpers, the
    msbfs level loop — and keep no copy of them: no pointer jump
    (``x[x]``), scatter-min, pair count, label-weight grouping or
    bincount of their own in ``repro.sharded``, no reference to the
    msbfs direction rule or claims, and no ``while`` loop in
    ``sharded_msbfs``.  Matched on AST nodes, so docstrings may name
    them."""
    root = Path(shards.__file__).parent
    banned = {"np.minimum.at", "np.union1d", "np.bincount",
              "grouped_label_weights"}
    msbfs_loop = {"_PULL_ARC_RATIO", "_claim_new", "_claim_dense"}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom)
                else [node.id] if isinstance(node, ast.Name)
                else [node.attr] if isinstance(node, ast.Attribute) else []
            )
            offenders += [f"{path.name}:{node.lineno}: {name}"
                          for name in names if name in msbfs_loop]
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "sharded_msbfs"):
                offenders += [f"{path.name}:{n.lineno}: while"
                              for n in ast.walk(node)
                              if isinstance(n, ast.While)]
            if isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                if (func in banned or func.endswith(".grouped_label_weights")
                        or any(kw.arg == "return_counts" for kw in node.keywords)):
                    offenders.append(f"{path.name}:{node.lineno}: {func}(")
            elif (isinstance(node, ast.Subscript)
                  and ast.unparse(node.value) == ast.unparse(node.slice)):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, f"in-core steps copied into repro.sharded: {offenders}"


LANE_COUNTS = [1, 8, 9, 16, 17, 33, 64, 65, 130]


def _lane_sources(g, k):
    """``k`` sources; from 3 lanes up one is a duplicate and one isolated."""
    srcs = np.random.default_rng(k).integers(0, g.n_vertices, size=k)
    isolated = np.flatnonzero(g.degrees() == 0)
    if k >= 3:
        srcs[1] = srcs[0]
        srcs[2] = isolated[0]
    return srcs.tolist()


def _recording_driver(ss, **kw):
    """A driver that notes, per msbfs superstep, the lane-word width in
    bytes if it pulled (pull payloads carry no frontier rows), else 0."""
    drv = BSPDriver(ss, **kw)
    orig, drv.pulled = drv.superstep, []

    def superstep(phase, worker, payloads, **kws):
        pull = all(p[2] is None for p in payloads)
        drv.pulled.append(payloads[0][3].itemsize if pull else 0)
        return orig(phase, worker, payloads, **kws)

    drv.superstep = superstep
    return drv


@pytest.mark.parametrize("arc_chunk", [None, 64])
class TestMsbfsWordParity:
    """The word-formulation body against in-core ``msbfs``: every word
    dtype edge and multi-word lane count, on shard layouts with one
    shard and with an empty shard, unblocked and with the push/pull
    expansions cut into 64-arc blocks."""

    @pytest.fixture(autouse=True)
    def _blocked(self, arc_chunk, monkeypatch):
        """Shrink the arc block; returns the block count of every
        blocked arc walk the run makes."""
        from repro.kernels import segments

        counts, chunk_bounds = [], segments.chunk_bounds

        def counting(work, limit):
            bounds = chunk_bounds(work, limit)
            counts.append(bounds.shape[0] - 1)
            return bounds

        monkeypatch.setattr(segments, "chunk_bounds", counting)
        if arc_chunk is not None:
            monkeypatch.setattr(segments, "ARC_CHUNK", arc_chunk)
        return counts

    @pytest.fixture(scope="class")
    def layouts(self, rmat10, tmp_path_factory):
        root = tmp_path_factory.mktemp("words")
        holes = np.arange(rmat10.n_vertices) % 2 * 2  # shard 1 of 3 owns nothing
        return {
            "k1": build_shard_set(rmat10, root / "k1", k=1),
            "k3": build_shard_set(rmat10, root / "k3", k=3),
            "holes": build_shard_set(rmat10, root / "holes", labels=holes),
        }

    @staticmethod
    def _check(g, ss, sources, **kw):
        ref = msbfs(g, sources, max_depth=kw.get("max_depth"))
        got = sharded_msbfs(ss, sources, **kw)
        assert np.array_equal(got.distances, ref.distances)
        assert got.n_levels == ref.n_levels

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_lane_counts(self, rmat10, layouts, lanes):
        assert layouts["holes"].k == 3
        assert layouts["holes"].shard_meta(1)["n_owned"] == 0
        # every word of lanes, at its own width, claims a pull level
        # with the dense in-core step
        widths = {
            next(b for b in (1, 2, 4, 8) if min(64, lanes - lo) <= 8 * b)
            for lo in range(0, lanes, 64)
        }
        for ss in layouts.values():
            drv = _recording_driver(ss)
            self._check(rmat10, ss, _lane_sources(rmat10, lanes), driver=drv)
            assert set(drv.pulled) - {0} == widths

    @pytest.mark.parametrize("max_depth", [0, 1, 2])
    def test_max_depth(self, rmat10, layouts, max_depth):
        self._check(rmat10, layouts["k3"], _lane_sources(rmat10, 70),
                    max_depth=max_depth)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backends(self, rmat10, layouts, backend):
        with ParallelContext(2, backend=backend) as ctx:
            self._check(rmat10, layouts["holes"], _lane_sources(rmat10, 70),
                        ctx=ctx)

    def test_blocked_walks_split(self, rmat10, layouts, arc_chunk, _blocked):
        """The 64-arc variant really cuts push and pull walks into
        blocks; the default one walks each shard in one."""
        self._check(rmat10, layouts["k3"], _lane_sources(rmat10, 16))
        assert _blocked
        if arc_chunk is None:
            assert max(_blocked) == 1
        else:
            assert max(_blocked) >= 2

    def test_pulls_at_the_widest_level_only(self, rmat10, layouts):
        drv = _recording_driver(layouts["k3"])
        self._check(rmat10, layouts["k3"], _lane_sources(rmat10, 16),
                    driver=drv)
        assert any(drv.pulled) and not drv.pulled[0]

    def test_late_pulls_scan_unfinished_rows_only(self, rmat10, layouts):
        """Sources in one component let rows see every lane: a pull level
        whose unfinished rows hold under half a shard's arcs ships just
        those rows, and the claims stay exact."""
        labels = connected_components(rmat10)
        ids, counts = np.unique(labels, return_counts=True)
        giant = np.flatnonzero(labels == ids[counts.argmax()])
        drv = BSPDriver(layouts["k3"])
        orig, shipped = drv.superstep, []

        def superstep(phase, worker, payloads, **kws):
            shipped.extend(p[4] for p in payloads if p[2] is None)
            return orig(phase, worker, payloads, **kws)

        drv.superstep = superstep
        sources = giant[::max(1, giant.shape[0] // 16)][:16].tolist()
        self._check(rmat10, layouts["k3"], sources, driver=drv)
        assert any(rows is None for rows in shipped)
        restricted = [rows for rows in shipped if rows is not None]
        assert restricted and all(r.shape[0] for r in restricted)

    def test_long_path_never_pulls(self, tmp_path):
        n = 1200
        g = from_edge_array(n, np.arange(n - 1), np.arange(1, n),
                            directed=False)
        ss = build_shard_set(g, tmp_path / "path", k=3, method="block")
        drv = _recording_driver(ss)
        self._check(g, ss, [0, 400, 400, n - 1], driver=drv)
        # n - 1 productive levels from vertex 0, plus the empty last one
        assert len(drv.pulled) == n and not any(drv.pulled)


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_all_backends_bit_identical(self, karate, tmp_path, backend):
        ss = build_shard_set(karate, tmp_path / "s", k=3)
        with ParallelContext(2, backend=backend) as ctx:
            got = sharded_msbfs(ss, [0, 5, 33], ctx=ctx)
            labels = sharded_connected_components(ss, ctx=ctx)
            res = sharded_pla(ss, ctx=ctx)
        ref = msbfs(karate, [0, 5, 33])
        assert np.array_equal(got.distances, ref.distances)
        assert np.array_equal(labels, connected_components(karate))
        ref_pla = pla(karate, multilevel=True)
        assert res.modularity == ref_pla.modularity
        assert np.array_equal(res.labels, ref_pla.labels)


# ---------------------------------------------------------------------------
# Process-wide shard cache (DESIGN §12): one mapping per shard file of
# the set in use, at most one shard's pages resident per worker
# ---------------------------------------------------------------------------
def _shard_file_usage(ss):
    """``(resident bytes, open descriptors)`` of this process's mappings
    of ``ss``'s shard files, from ``/proc/self/{smaps,fd}``."""
    files = {os.path.realpath(ss.shard_path(s)) for s in range(ss.k)}
    rss, mapped = 0, None
    with open("/proc/self/smaps") as f:
        for line in f:
            head = line.split()
            if re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", head[0]):
                mapped = head[5] if len(head) > 5 else None
            elif head[0] == "Rss:" and mapped in files:
                rss += int(head[1]) * 1024
    fds = sum(
        os.path.realpath(f"/proc/self/fd/{fd}") in files
        for fd in os.listdir("/proc/self/fd")
    )
    return rss, fds


class TestShardCache:
    @pytest.fixture
    def rmat12(self, tmp_path):
        g = rmat(12, 8.0, rng=np.random.default_rng(12))
        return g, build_shard_set(g, tmp_path / "s", k=4)

    def test_one_shard_resident(self, rmat12):
        """After each activation the resident shard-file pages are at
        most one shard's, one descriptor per file at most; a clear
        leaves none resident and the released views still read."""
        _, ss = rmat12
        largest = max(ss.shard_path(s).stat().st_size for s in range(ss.k))
        limit = -(-largest // mmap.PAGESIZE) * mmap.PAGESIZE
        for s in (0, 1, 2, 3, 1, 0, 3):
            sh = ss.shard(s)
            for a in (sh.owned, sh.halo, sh.offsets, sh.targets, sh.arc_edge_ids):
                if a is not None:
                    a.sum()  # fault every page of the shard in
            rss, fds = _shard_file_usage(ss)
            assert 0 < rss <= limit
            assert fds <= ss.k
        total = int(sh.targets.sum())
        shards.clear_shard_cache()
        assert _shard_file_usage(ss)[0] == 0
        assert int(sh.targets.sum()) == total

    def test_each_shard_file_mapped_once(self, rmat12, monkeypatch):
        """Supersteps reuse the mappings instead of re-opening shards:
        one ``mmap_npz`` per shard file, none on a repeat run."""
        g, ss = rmat12
        opened = []
        real = shards.mmap_npz
        monkeypatch.setattr(
            shards, "mmap_npz", lambda path: opened.append(str(path)) or real(path)
        )
        sources = [0, 1, 2, 3]
        got = sharded_msbfs(ss, sources)
        assert np.array_equal(got.distances, msbfs(g, sources).distances)
        assert sorted(opened) == sorted(str(ss.shard_path(s)) for s in range(ss.k))
        opened.clear()
        sharded_msbfs(ss, sources)
        sharded_connected_components(ss)
        assert opened == []

    def test_rebuilt_set_at_same_path_is_reread(self, tmp_path):
        """A pool worker that served a shard set reads a set rebuilt at
        the same path through the new files, never its old mapping."""
        with ParallelContext(2, backend="process") as ctx:
            for seed in range(8):
                g = rmat(10 + seed % 2, 8.0, rng=np.random.default_rng(seed))
                ss = build_shard_set(g, tmp_path / "s", k=4)
                got = sharded_msbfs(ss, [0, 1, 2], ctx=ctx)
                assert np.array_equal(
                    got.distances, msbfs(g, [0, 1, 2]).distances
                )

    def test_threads_share_the_cache(self, rmat12):
        """More threads than cores activating shards at random under a
        short switch interval, each releasing shards others still read:
        every read sees its own shard's data, one mapping per file."""
        _, ss = rmat12
        want = [int(ss.owned(s).sum()) for s in range(ss.k)]
        errors = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            for s in rng.integers(0, ss.k, size=200).tolist():
                sh = ss.shard(s)
                if (sh.index, int(sh.local_to_global[:sh.n_owned].sum()),
                        int(sh.owned.sum())) != (s, want[s], want[s]):
                    errors.append(s)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sorted(shards._SHARD_CACHE.entries) == sorted(
            str(ss.shard_path(s)) for s in range(ss.k)
        )
        shards.clear_shard_cache()
        rss, fds = _shard_file_usage(ss)
        assert rss == 0 and fds <= ss.k


# ---------------------------------------------------------------------------
# Recovery: a worker killed mid-superstep resumes from the last
# completed superstep and still produces bit-identical results
# ---------------------------------------------------------------------------
class TestRecovery:
    def test_worker_killed_mid_superstep(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=3)
        ref = msbfs(karate, [0, 16, 33])
        with ParallelContext(
            2, backend="process",
            fault_policy=FaultPolicy(),
            chaos=ChaosPlan([Fault("exit", task_index=0, times=1)]),
        ) as ctx:
            got = sharded_msbfs(ss, [0, 16, 33], ctx=ctx)
            assert ctx.pool.faults_injected == 1
            assert ctx.pool.worker_crashes >= 1
        assert np.array_equal(got.distances, ref.distances)

    def test_pla_survives_repeated_crashes(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        ref = pla(karate, multilevel=True)
        with ParallelContext(
            2, backend="process",
            fault_policy=FaultPolicy(),
            chaos=ChaosPlan([
                Fault("exit", task_index=0, times=1),
                Fault("raise", task_index=1, times=2),
            ]),
        ) as ctx:
            got = sharded_pla(ss, ctx=ctx)
            assert ctx.pool.faults_injected >= 2
        assert got.modularity == ref.modularity
        assert np.array_equal(got.labels, ref.labels)


# ---------------------------------------------------------------------------
# Memory budget + cost model
# ---------------------------------------------------------------------------
class TestBudget:
    def test_admit_refuses_in_core(self, rmat10, tmp_path):
        budget = MemoryBudget(in_core_nbytes(rmat10) // 4)
        with pytest.raises(MemoryBudgetExceeded):
            budget.admit(in_core_nbytes(rmat10), "in-core CSR")

    def test_driver_refuses_oversized_shard(self, rmat10, tmp_path):
        ss = build_shard_set(rmat10, tmp_path / "s", k=2)
        with pytest.raises(MemoryBudgetExceeded):
            BSPDriver(ss, mem_budget=MemoryBudget(1024))

    def test_sharded_run_fits_where_in_core_refused(self, rmat10, tmp_path):
        cap = in_core_nbytes(rmat10)  # < in-core + working set, > one shard
        ss = build_shard_set(rmat10, tmp_path / "s", mem_budget=cap)
        assert ss.k == recommend_shards(in_core_nbytes(rmat10), cap)
        assert ss.largest_shard_bytes < cap
        drv = BSPDriver(ss, mem_budget=MemoryBudget(cap))
        got = sharded_msbfs(ss, [0], driver=drv)
        assert np.array_equal(got.distances, msbfs(rmat10, [0]).distances)
        assert drv.metrics()["n_supersteps"] > 0

    def test_recommend_shards_properties(self):
        assert recommend_shards(0, 100) == 1
        assert recommend_shards(100, 10**9) == 1
        k = recommend_shards(1 << 30, 64 << 20)
        assert k > 1
        # monotone: a tighter budget never wants fewer shards
        assert recommend_shards(1 << 30, 32 << 20) >= k
        with pytest.raises(ValueError):
            recommend_shards(100, 0)

    def test_ledger_independent_of_directory_name(self, karate, tmp_path):
        """Boundary bytes are a property of the graph and the algorithm,
        not of where the shard set happens to live."""
        ledgers = []
        for name in ("s", "a-much-longer-shard-set-directory-name"):
            ss = build_shard_set(karate, tmp_path / name, k=3)
            drv = BSPDriver(ss)
            sharded_msbfs(ss, [0, 16, 33], driver=drv)
            sharded_connected_components(ss, driver=drv)
            sharded_pla(ss, driver=drv)
            ledgers.append([(s.phase, s.bytes_out, s.bytes_in)
                            for s in drv.stats])
        assert ledgers[0] == ledgers[1]

    def test_superstep_metrics_ledger(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        drv = BSPDriver(ss)
        sharded_msbfs(ss, [0], driver=drv)
        m = drv.metrics()
        assert m["k_shards"] == 2
        assert m["n_supersteps"] == len(m["supersteps"])
        assert m["boundary_bytes_out"] > 0
        assert m["boundary_bytes_in"] > 0
        assert m["peak_rss_bytes"] > 0
        phases = [s["phase"] for s in m["supersteps"]]
        assert any("msbfs" in p for p in phases)


# ---------------------------------------------------------------------------
# CLI round-trip
# ---------------------------------------------------------------------------
class TestCli:
    def test_build_info_verify_run(self, karate, tmp_path, capsys):
        gpath = tmp_path / "karate.npz"
        from repro.graph import io as graph_io

        graph_io.save_npz(karate, gpath)
        root = tmp_path / "ss"
        assert cli_main(["shard", "build", str(gpath), "-o", str(root),
                         "-k", "3"]) == 0
        capsys.readouterr()  # drop build output
        assert cli_main(["shard", "info", str(root), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 3
        assert cli_main(["shard", "verify", str(root), "--deep"]) == 0
        metrics = tmp_path / "m.json"
        assert cli_main(["shard", "run", str(root),
                         "--algo", "msbfs,components,pla",
                         "--sources", "0,5,33",
                         "--mem-budget", "64M",
                         "--metrics", str(metrics)]) == 0
        out = json.loads(metrics.read_text())
        ref = msbfs(karate, [0, 5, 33])
        assert out["algos"]["msbfs"]["checksum"] == int(
            ref.distances.astype(np.int64).sum()
        )
        assert out["algos"]["pla"]["modularity"] == pla(
            karate, multilevel=True
        ).modularity
        assert out["metrics"]["n_supersteps"] > 0

    def test_cli_verify_fails_on_corruption(self, karate, tmp_path):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        blob = bytearray(ss.shard_path(0).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        ss.shard_path(0).write_bytes(bytes(blob))
        assert cli_main(["shard", "verify", str(ss.root)]) == 1

    def test_cli_verify_names_corrupt_checkpoint(self, karate, tmp_path,
                                                 capsys):
        ss = build_shard_set(karate, tmp_path / "s", k=2)
        path, _ = TestVerify._leave_checkpoint(ss)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cli_main(["shard", "verify", str(ss.root)]) == 1
        assert str(path) in capsys.readouterr().out

    def test_cli_build_mem_budget_sizing(self, rmat10, tmp_path):
        gpath = tmp_path / "g.npz"
        from repro.graph import io as graph_io

        graph_io.save_npz(rmat10, gpath)
        root = tmp_path / "ss"
        cap = in_core_nbytes(rmat10)
        assert cli_main(["shard", "build", str(gpath), "-o", str(root),
                         "--mem-budget", str(cap)]) == 0
        assert open_shard_set(root).k == recommend_shards(
            in_core_nbytes(rmat10), cap
        )


# ---------------------------------------------------------------------------
# Serve registry admission
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_load_shard_set_by_manifest_bytes(self, karate, tmp_path):
        from repro.serve.registry import GraphRegistry

        ss = build_shard_set(karate, tmp_path / "s", k=3)
        with GraphRegistry() as reg:
            entry = reg.load(str(ss.root), name="karate")
            assert entry.shards == 3
            assert entry.graph.offsets.tobytes() == karate.offsets.tobytes()
            doc = entry.describe()
            assert doc["shards"] == 3

    def test_admission_refused_before_stitch(self, karate, tmp_path):
        from repro.errors import AdmissionDenied
        from repro.serve.registry import GraphRegistry

        ss = build_shard_set(karate, tmp_path / "s", k=2)
        with GraphRegistry(max_bytes=64) as reg:
            with pytest.raises(AdmissionDenied, match="manifest total"):
                reg.load(str(ss.root))
            assert reg.names() == []


# ---------------------------------------------------------------------------
# Tier-1 smoke benchmark (scale-10 variant of the shard_full gate)
# ---------------------------------------------------------------------------
def test_shard_scale_smoke(tmp_path):
    g = rmat(10, 8.0, rng=np.random.default_rng(22))
    ss = build_shard_set(g, tmp_path / "s", k=4)
    drv = BSPDriver(ss, mem_budget=MemoryBudget(256 << 20))
    got = sharded_msbfs(ss, [0, 1, 2, 3], driver=drv)
    ref = msbfs(g, [0, 1, 2, 3])
    assert np.array_equal(got.distances, ref.distances)
    m = drv.metrics()
    # The record goes under tmp_path: a tier-1 run must not rewrite the
    # tracked benchmarks/results/shard_scale_smoke.json with timing noise.
    (tmp_path / "shard_scale_smoke.json").write_text(json.dumps({
        "scale": 10,
        "edge_factor": 8.0,
        "k_shards": ss.k,
        "edge_cut": ss.edge_cut,
        "bit_identical": True,
        "metrics": m,
    }, indent=2, sort_keys=True) + "\n")
    assert m["peak_rss_bytes"] > 0
