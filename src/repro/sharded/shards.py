"""Sharded memory-mapped graph substrate (DESIGN §12).

A *shard set* is an on-disk partition of one undirected CSR graph into
``k`` shards, laid out so that every algorithm can run shard-at-a-time
with working memory ``O(largest shard + halo)`` instead of ``O(graph)``.
Building one holds the input graph plus one shard's arcs and one
edge-stream column (traced 0.70x the CSR at R-MAT 14, 0.52x at 18):

* ``shard_NNNN.npz`` — one uncompressed ``.npz`` per shard holding the
  local CSR over that shard's *owned* vertices.  Each owned vertex
  keeps its **full** global adjacency in global CSR arc order (this is
  what makes per-vertex float accumulations bit-identical to the
  in-core kernels); targets are local ids over ``owned ++ halo``.
  Ghost (halo) vertices are the non-owned arc targets, id-ascending.
* ``edges.npz`` — the canonical edge stream ``(u, v[, w])`` indexed by
  global edge id, exactly ``Graph.edge_endpoints()``/``edge_weights()``.
  The chunked modularity/contract kernels replay it in edge-id order,
  which reproduces the in-core ``np.add.at``/``np.bincount``
  accumulation order bit for bit.
* ``manifest.json`` — schema version, global sizes, the exact total
  edge weight (hex float), per-shard byte/degree/halo/boundary stats
  and CRC-32 checksums of every ``.npz`` member.

Members of the uncompressed ``.npz`` archives are *memory-mapped* (the
zip directory gives each member's data offset; one ``mmap`` of the file
carries an ``np.frombuffer`` view per member), so opening a shard costs
pages, not copies — ``np.load`` alone would read ``.npz`` members
eagerly.  Each process maps a shard file once: the shard cache keeps
one read-only mapping per shard file of the set in use, keyed by file
identity, and bounds residency by releasing pages (``madvise``), not by
unmapping — at most one shard's pages are resident per executing
worker.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import mmap
import os
import struct
import threading
import types
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.durable import write_json_atomic
from repro.errors import GraphFormatError, GraphStructureError, PartitioningError, SnapError
from repro.graph.csr import EDGE_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE, Graph

FORMAT_NAME = "repro-shard-set"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
EDGE_STREAM_NAME = "edges.npz"

#: Edges per :meth:`ShardSet.edge_chunks` chunk unless the caller picks
#: one (read at call time).
DEFAULT_CHUNK_EDGES = 1 << 20

#: Bytes per read when :meth:`ShardSet.verify` checksums a member.
CRC_BLOCK = 256 << 10

__all__ = [
    "ShardSet",
    "Shard",
    "build_shard_set",
    "open_shard_set",
    "load_shard",
    "is_shard_set_path",
    "in_core_nbytes",
    "MemberReader",
    "mmap_npz",
]


def in_core_nbytes(graph: Graph) -> int:
    """Resident bytes of the in-core CSR arrays (what sharding avoids).

    Counts the arc→edge-id map at its materialized size without
    forcing the lazy materialization (any edge-level kernel would).
    """
    total = graph.offsets.nbytes + graph.targets.nbytes
    if graph._arc_edge_ids is not None:
        total += graph._arc_edge_ids.nbytes
    else:
        total += graph.n_arcs * np.dtype(EDGE_DTYPE).itemsize
    if graph.weights is not None:
        total += graph.weights.nbytes
    return int(total)


#: Halo fraction assumed when sizing shards before a partition exists:
#: multilevel partitions of small-world graphs typically replicate
#: 5–25% of a shard's vertices as ghosts; 0.15 is the middle of that
#: band and errs toward more shards (safer under a hard budget).
HALO_FRACTION = 0.15

#: Per-worker overhead besides the mapped shard: superstep payloads,
#: result buffers and interpreter slack, as a fraction of shard bytes.
WORKING_SET_FACTOR = 1.5

MAX_SHARDS = 4096


def recommend_shards(graph_bytes: int, mem_budget: int) -> int:
    """Smallest shard count whose per-shard working set fits the budget.

    ``graph_bytes`` is the in-core CSR size (:func:`in_core_nbytes`);
    ``mem_budget`` the bytes one worker may keep resident.  A ``k``-way
    split leaves roughly ``graph_bytes / k`` owned payload per shard,
    inflated by the halo layer (``k > 1`` only) and the superstep
    working set; the smallest ``k`` that fits keeps shards as coarse as
    possible.
    """
    if graph_bytes < 0:
        raise ValueError("graph_bytes must be non-negative")
    if mem_budget <= 0:
        raise ValueError("mem_budget must be positive")
    if graph_bytes == 0:
        return 1
    for k in range(1, MAX_SHARDS + 1):
        per_shard = graph_bytes / k
        if k > 1:
            per_shard *= 1.0 + HALO_FRACTION
        if per_shard * WORKING_SET_FACTOR <= mem_budget:
            return k
    return MAX_SHARDS


# ---------------------------------------------------------------------------
# Memory-mapped .npz access
# ---------------------------------------------------------------------------
def _read_npy_descr(raw, offset: int):
    """Parse the ``.npy`` header at ``offset``; return (dtype, shape, size)."""
    raw.seek(offset)
    magic = raw.read(6)
    if magic != b"\x93NUMPY":
        raise GraphFormatError("shard npz member is not a .npy array")
    ver = raw.read(2)
    if ver[0] == 1:
        (hlen,) = struct.unpack("<H", raw.read(2))
        header_size = 10 + hlen
    else:
        (hlen,) = struct.unpack("<I", raw.read(4))
        header_size = 12 + hlen
    header = ast.literal_eval(raw.read(hlen).decode("latin1"))
    if header.get("fortran_order"):
        raise GraphFormatError("fortran-ordered shard members are not supported")
    return np.dtype(header["descr"]), tuple(header["shape"]), header_size


def npz_member_layout(path: Path | str):
    """Data layout of an *uncompressed* ``.npz``: read-only mapping
    name → (dtype, shape, absolute byte offset of the raw array data).

    Parsed once per file identity ``(path, st_ino, st_mtime_ns,
    st_size)`` per process: the coordinator's chunked edge-stream
    readers re-open ``edges.npz`` on every modularity pass, and a file
    rewritten at the same path is parsed afresh.
    """
    return _parse_member_layout(str(path), _file_identity(path))


def _file_identity(path) -> tuple[int, int, int]:
    """``(st_ino, st_mtime_ns, st_size)``: changes when a file is
    rewritten, in place or by rename."""
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns, st.st_size


@functools.lru_cache(maxsize=256)
def _parse_member_layout(path_str: str, identity: tuple):
    path = Path(path_str)
    out: dict[str, tuple[np.dtype, tuple, int]] = {}
    with zipfile.ZipFile(path) as zf, open(path, "rb") as raw:
        for info in zf.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise GraphFormatError(
                    f"{path.name}:{info.filename} is compressed; shard sets "
                    "require uncompressed .npz payloads (np.savez)"
                )
            raw.seek(info.header_offset)
            local = raw.read(30)
            if local[:4] != b"PK\x03\x04":
                raise GraphFormatError(f"{path.name}: corrupt zip local header")
            name_len, extra_len = struct.unpack("<HH", local[26:30])
            data_offset = info.header_offset + 30 + name_len + extra_len
            dtype, shape, header_size = _read_npy_descr(raw, data_offset)
            name = info.filename
            if name.endswith(".npy"):
                name = name[:-4]
            out[name] = (dtype, shape, data_offset + header_size)
    return types.MappingProxyType(out)


def mmap_npz(path: Path | str) -> dict[str, np.ndarray]:
    """Memory-map every member of an *uncompressed* ``.npz`` archive.

    Returns ``{member_name: array}``: read-only views into ONE shared
    mapping of the file, unmapped when the last view dies.
    """
    layout = npz_member_layout(path)
    with open(path, "rb") as f:
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return {
        name: np.frombuffer(
            mapped, dtype=dtype, count=math.prod(shape), offset=data_start
        ).reshape(shape)
        for name, (dtype, shape, data_start) in layout.items()
    }


class MemberReader:
    """Chunked ``read()``-based access to one 1-D ``.npz`` member.

    Unlike a memmap, slices come back as fresh arrays via ``read(2)``
    syscalls, so iterating a huge member never inflates the caller's
    resident set — the coordinator's streamed modularity/contraction
    passes use this to stay under the memory budget.
    """

    def __init__(self, path: Path, member: str) -> None:
        layout = npz_member_layout(path)
        if member not in layout:
            raise GraphFormatError(f"{path}: no member {member!r}")
        self.path = Path(path)
        self.dtype, shape, self.data_start = layout[member]
        if len(shape) != 1:
            raise GraphFormatError(f"{path}:{member}: expected a 1-D member")
        self.length = int(shape[0])

    def read(self, start: int, stop: int) -> np.ndarray:
        start = max(0, int(start))
        stop = min(self.length, int(stop))
        count = max(0, stop - start)
        if count == 0:
            return np.empty(0, dtype=self.dtype)
        with open(self.path, "rb") as f:
            f.seek(self.data_start + start * self.dtype.itemsize)
            return np.fromfile(f, dtype=self.dtype, count=count)


def _member_crcs(path: Path) -> dict[str, int]:
    """CRC-32 of each decompressed ``.npz`` member payload, read
    ``CRC_BLOCK`` bytes at a time."""
    crcs: dict[str, int] = {}
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            crc = 0
            with zf.open(info) as f:
                while block := f.read(CRC_BLOCK):
                    crc = zlib.crc32(block, crc)
            crcs[info.filename.removesuffix(".npy")] = crc
    return crcs


def _write_npz(path: Path, members) -> tuple[dict[str, int], int]:
    """Write ``(name, array)`` pairs as the uncompressed ``.npz``
    ``np.savez`` lays out, each array from its own buffer as it comes;
    returns each member's CRC-32 as the zip writer took it, and the
    file's size."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, arr in members:
            header = np.lib.format.header_data_from_array_1_0(arr)
            with zf.open(f"{name}.npy", "w", force_zip64=True) as f:
                np.lib.format.write_array_header_1_0(f, header)
                f.write(np.ascontiguousarray(arr).data)
        crcs = {i.filename.removesuffix(".npy"): i.CRC for i in zf.infolist()}
    return crcs, path.stat().st_size


# ---------------------------------------------------------------------------
# Shard objects
# ---------------------------------------------------------------------------
@dataclass
class Shard:
    """One memory-mapped shard: local CSR over owned vertices + halo.

    ``targets`` holds *local* ids: ``[0, n_owned)`` are owned vertices
    (id-ascending), ``[n_owned, n_owned + n_halo)`` ghost vertices
    (id-ascending).  ``local_to_global`` maps local → global ids.
    """

    index: int
    path: Path
    owned: np.ndarray       # global ids, ascending
    halo: np.ndarray        # global ids, ascending
    offsets: np.ndarray     # local CSR offsets, len n_owned + 1
    targets: np.ndarray     # local target ids
    weights: Optional[np.ndarray]
    arc_edge_ids: Optional[np.ndarray]
    local_to_global: np.ndarray

    @property
    def n_owned(self) -> int:
        return int(self.owned.shape[0])

    @property
    def n_halo(self) -> int:
        return int(self.halo.shape[0])

    @property
    def n_local(self) -> int:
        return int(self.local_to_global.shape[0])

    @property
    def n_arcs(self) -> int:
        return int(self.targets.shape[0])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def rows(self) -> Graph:
        """The owned rows as a zero-copy CSR :class:`Graph` over local
        ids (halo targets lie past its ``n_vertices``), for the in-core
        per-arc helpers; ``directed`` so that it needs no edge ids."""
        return Graph(self.offsets, self.targets, directed=True,
                     weights=self.weights, validate=False)


def load_shard(path: Path | str, *, index: int = -1) -> Shard:
    """Memory-map one ``shard_NNNN.npz`` payload."""
    return _shard_view(Path(path), index, mmap_npz(path))


def _shard_view(path: Path, index: int, members: dict) -> Shard:
    for required in ("owned", "halo", "offsets", "targets"):
        if required not in members:
            raise GraphFormatError(f"{path.name}: missing member {required!r}")
    owned = members["owned"]
    halo = members["halo"]
    return Shard(
        index=index,
        path=path,
        owned=owned,
        halo=halo,
        offsets=members["offsets"],
        targets=members["targets"],
        weights=members.get("weights"),
        arc_edge_ids=members.get("arc_edge_ids"),
        local_to_global=np.concatenate([owned, halo]),
    )


# ---------------------------------------------------------------------------
# Process-wide shard cache.  One read-only mapping per shard file of the
# shard set in use, kept across supersteps and runs, so a shard is mapped
# once per process however often workers touch it.  Residency is bounded
# by releasing pages, not by unmapping: activating a shard releases the
# calling thread's previous one with madvise(MADV_DONTNEED), so each
# executing worker has at most one shard's pages resident.  Pages of a
# MAP_SHARED file mapping re-fault from the page cache, so a release
# never changes what a view reads, and an entry is re-opened only when
# its file identity changes (a shard set rebuilt at the same path).
# Workers stay stateless: recovery re-runs a payload on any worker and
# gets identical bits.
# ---------------------------------------------------------------------------
@dataclass
class _Mapped:
    path: Path
    identity: tuple
    members: dict           # member views over one mmap
    mapped: mmap.mmap
    shard: Optional[Shard] = None  # built on activation, dropped on release

    def release(self) -> None:
        self.shard = None  # callers' references stay valid
        self.mapped.madvise(mmap.MADV_DONTNEED)


def _backing_mmap(arr: np.ndarray) -> mmap.mmap:
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj


class _ShardCache:
    """The process's shard mappings, guarded by ``lock``."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.root: Optional[str] = None  # directory of the set in use
        self.entries: dict[str, _Mapped] = {}
        self.active = threading.local()  # .path: this thread's resident shard

    def activate(self, path: str, index: int) -> Shard:
        identity = _file_identity(path)
        with self.lock:
            root = os.path.dirname(path)
            if root != self.root:  # another shard set: drop this one's
                self.release_all()
                self.entries.clear()
                self.root = root
            previous = self.entries.get(getattr(self.active, "path", None))
            self.active.path = path
            entry = self.entries.get(path)
            if previous is not None and previous is not entry:
                previous.release()
            if entry is None or entry.identity != identity:
                if entry is not None:
                    entry.release()
                members = mmap_npz(path)
                sh = _shard_view(Path(path), index, members)
                entry = self.entries[path] = _Mapped(
                    sh.path, identity, members, _backing_mmap(sh.owned), sh
                )
            if entry.shard is None:
                entry.shard = _shard_view(entry.path, index, entry.members)
            return entry.shard

    def release_all(self) -> None:
        for entry in self.entries.values():
            entry.release()

    def after_fork(self) -> None:
        # A pool worker forked while another thread held the lock must
        # not inherit it held.
        self.lock = threading.Lock()


_SHARD_CACHE = _ShardCache()
os.register_at_fork(after_in_child=_SHARD_CACHE.after_fork)


def _cached_shard(path: str, index: int) -> Shard:
    """The shard at ``path`` through the process-wide cache, resident
    for the calling thread until it activates another shard or the
    cache is cleared."""
    return _SHARD_CACHE.activate(path, index)


def clear_shard_cache() -> None:
    """Release every cached shard's pages, keeping the mappings.

    The BSP driver calls this after each superstep so that, with the
    in-process backends, coordinator merge transients never stack on
    top of the last worker's resident shard.
    """
    with _SHARD_CACHE.lock:
        _SHARD_CACHE.release_all()


# ---------------------------------------------------------------------------
# Shard set
# ---------------------------------------------------------------------------
def is_shard_set_path(path: Path | str) -> bool:
    """True if ``path`` is a shard-set directory or its manifest file."""
    p = Path(path)
    if p.name == MANIFEST_NAME:
        p = p.parent
    if not (p / MANIFEST_NAME).is_file():
        return False
    try:
        with open(p / MANIFEST_NAME, "rb") as f:
            head = f.read(256).decode("utf-8", "replace")
    except OSError:
        return False
    return FORMAT_NAME in head


class ShardSet:
    """An opened shard set: manifest + lazily memory-mapped shards."""

    def __init__(self, root: Path, manifest: dict) -> None:
        if manifest.get("format") != FORMAT_NAME:
            raise GraphFormatError(f"{root}: not a {FORMAT_NAME} manifest")
        if int(manifest.get("version", -1)) > FORMAT_VERSION:
            raise GraphFormatError(
                f"{root}: shard-set version {manifest.get('version')} is newer "
                f"than supported version {FORMAT_VERSION}"
            )
        if manifest.get("directed"):
            # build_shard_set never writes one, and the kernels (the
            # msbfs pull, components, pLA) all assume symmetric arcs.
            raise GraphFormatError(f"{root}: directed shard sets are not supported")
        self.root = Path(root)
        self.manifest = manifest
        self._owned: Optional[list[np.ndarray]] = None
        self._owner: Optional[np.ndarray] = None
        self._local_index: Optional[np.ndarray] = None
        self._degrees: Optional[np.ndarray] = None

    # -- manifest accessors -------------------------------------------------
    @property
    def k(self) -> int:
        return int(self.manifest["k"])

    @property
    def n_vertices(self) -> int:
        return int(self.manifest["n_vertices"])

    @property
    def n_edges(self) -> int:
        return int(self.manifest["n_edges"])

    @property
    def n_arcs(self) -> int:
        return int(self.manifest["n_arcs"])

    @property
    def is_weighted(self) -> bool:
        return bool(self.manifest["weighted"])

    @property
    def total_weight(self) -> float:
        """``float(graph.edge_weights().sum())`` of the source graph, exact."""
        return float.fromhex(self.manifest["total_weight_hex"])

    @property
    def total_bytes(self) -> int:
        """On-disk payload bytes — what registry admission charges."""
        return int(self.manifest["total_bytes"])

    @property
    def in_core_bytes(self) -> int:
        return int(self.manifest["in_core_bytes"])

    @property
    def edge_cut(self) -> int:
        return int(self.manifest["edge_cut"])

    @property
    def largest_shard_bytes(self) -> int:
        return max((int(s["bytes"]) for s in self.manifest["shards"]), default=0)

    def shard_meta(self, index: int) -> dict:
        return self.manifest["shards"][index]

    def shard_path(self, index: int) -> Path:
        return self.root / self.manifest["shards"][index]["file"]

    @property
    def active(self) -> list[int]:
        """The shards that own vertices: the ones a superstep visits."""
        return [s for s in range(self.k) if self.shard_meta(s)["n_owned"]]

    # -- shard access -------------------------------------------------------
    def shard(self, index: int) -> Shard:
        """Shard ``index`` through the process-wide shard cache: resident
        until this thread activates another shard."""
        return _cached_shard(str(self.shard_path(index)), index)

    def member_array(self, index: int, member: str) -> np.ndarray:
        """One 1-D member of a shard, via ``read(2)`` — no mmap growth.

        The coordinator's O(n) passes (vertex maps, degree gather,
        per-superstep payload builds) use this instead of :meth:`shard`
        so its resident set never accumulates mapped shard pages.
        """
        reader = MemberReader(self.shard_path(index), member)
        return reader.read(0, reader.length)

    def owned(self, index: int) -> np.ndarray:
        """Global ids owned by shard ``index``, read once per shard set."""
        if self._owned is None:
            self._owned = [self.member_array(s, "owned") for s in range(self.k)]
        return self._owned[index]

    @property
    def owner(self) -> np.ndarray:
        """Owning shard per global vertex (int32, length n)."""
        self._build_vertex_maps()
        return self._owner

    @property
    def local_index(self) -> np.ndarray:
        """Owner-local row index per global vertex (int64, length n)."""
        self._build_vertex_maps()
        return self._local_index

    def _build_vertex_maps(self) -> None:
        if self._owner is not None:
            return
        owner = np.full(self.n_vertices, -1, dtype=np.int32)
        local = np.full(self.n_vertices, -1, dtype=np.int64)
        for s in range(self.k):
            owned = self.owned(s)
            owner[owned] = s
            local[owned] = np.arange(owned.shape[0], dtype=np.int64)
        if self.n_vertices and (owner < 0).any():
            raise GraphFormatError(
                f"{self.root}: shard ownership does not cover every vertex"
            )
        self._owner, self._local_index = owner, local

    def degrees(self) -> np.ndarray:
        """Degree per global vertex (int64, length n), gathered once
        from the shard CSRs."""
        if self._degrees is None:
            deg = np.zeros(self.n_vertices, dtype=np.int64)
            for s in range(self.k):
                owned = self.owned(s)
                if owned.shape[0]:
                    deg[owned] = np.diff(self.member_array(s, "offsets"))
            self._degrees = deg
        return self._degrees

    def edge_chunks(self, chunk_edges: Optional[int] = None):
        """The global edge stream in edge-id order, as ``(u, v, w)``
        chunks of ``chunk_edges`` (default :data:`DEFAULT_CHUNK_EDGES`)
        edges read with ``read(2)`` (no mmap growth); ``w`` is ones on
        an unweighted set."""
        chunk_edges = chunk_edges or DEFAULT_CHUNK_EDGES
        path = self.root / self.manifest["edge_stream"]["file"]
        u_r, v_r = MemberReader(path, "u"), MemberReader(path, "v")
        w_r = MemberReader(path, "w") if self.is_weighted else None
        m = self.n_edges
        for start in range(0, m, chunk_edges):
            stop = min(m, start + chunk_edges)
            w = (np.ones(stop - start, dtype=WEIGHT_DTYPE) if w_r is None
                 else w_r.read(start, stop))
            yield u_r.read(start, stop), v_r.read(start, stop), w

    # -- reconstruction -----------------------------------------------------
    def stitch(self) -> Graph:
        """Reassemble the original in-core CSR graph, bit-exactly."""
        from repro.kernels.segments import concat_ranges

        n = self.n_vertices
        deg = np.zeros(n, dtype=EDGE_DTYPE)
        for s in range(self.k):
            sh = self.shard(s)
            if sh.n_owned:
                deg[sh.owned] = sh.degrees()
        offsets = np.zeros(n + 1, dtype=EDGE_DTYPE)
        np.cumsum(deg, out=offsets[1:])
        n_arcs = int(offsets[-1])
        targets = np.empty(n_arcs, dtype=VERTEX_DTYPE)
        weights = np.empty(n_arcs, dtype=WEIGHT_DTYPE) if self.is_weighted else None
        has_eids = bool(self.manifest.get("has_arc_edge_ids", True))
        eids = np.empty(n_arcs, dtype=EDGE_DTYPE) if has_eids else None
        for s in range(self.k):
            sh = self.shard(s)
            if not sh.n_owned:
                continue
            pos = concat_ranges(offsets[sh.owned], sh.degrees())
            targets[pos] = sh.local_to_global[sh.targets]
            if weights is not None:
                weights[pos] = sh.weights
            if eids is not None:
                eids[pos] = sh.arc_edge_ids
        return Graph(
            offsets,
            targets,
            directed=False,
            weights=weights,
            arc_edge_ids=eids,
            n_edges=self.n_edges,
            validate=False,
        )

    # -- integrity ----------------------------------------------------------
    def verify(self, *, deep: bool = False) -> list[str]:
        """Checksum every payload; with ``deep`` also stitch + revalidate.

        Returns a list of human-readable problems (empty = healthy).
        """
        problems: list[str] = []
        entries = [
            (self.manifest["edge_stream"]["file"],
             self.manifest["edge_stream"]["crc32"]),
        ] + [(s["file"], s["crc32"]) for s in self.manifest["shards"]]
        for fname, want in entries:
            path = self.root / fname
            if not path.is_file():
                problems.append(f"{fname}: missing payload file")
                continue
            try:
                got = _member_crcs(path)
            except (OSError, zipfile.BadZipFile) as exc:
                problems.append(f"{fname}: unreadable ({exc})")
                continue
            for member, crc in want.items():
                if member not in got:
                    problems.append(f"{fname}:{member}: missing member")
                elif got[member] != int(crc):
                    problems.append(
                        f"{fname}:{member}: crc {got[member]:08x} != "
                        f"manifest {int(crc):08x}"
                    )
        # Checkpoint logs under the shard-set root (DESIGN §13): every
        # record must pass magic + header CRC + length + payload CRC, so
        # a torn final record, truncation and bit flips are named before
        # a --resume run would trip over them.
        ckpt_dir = self.root / ".checkpoints"
        if ckpt_dir.is_dir():
            from repro.durable import check_log

            for path in sorted(ckpt_dir.glob("*.ckpt")):
                problems.extend(check_log(path))
        if deep and not problems:
            try:
                g = self.stitch()
                if g.n_vertices != self.n_vertices or g.n_edges != self.n_edges:
                    problems.append(
                        f"stitch: got n={g.n_vertices} m={g.n_edges}, manifest "
                        f"says n={self.n_vertices} m={self.n_edges}"
                    )
            except (SnapError, ValueError, IndexError) as exc:
                problems.append(f"stitch: failed ({exc})")
        return problems

    def describe(self) -> dict:
        """Summary dict for CLI ``shard info`` and serve registry stats."""
        shards = self.manifest["shards"]
        return {
            "path": str(self.root),
            "k": self.k,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "directed": False,
            "weighted": self.is_weighted,
            "edge_cut": self.edge_cut,
            "total_bytes": self.total_bytes,
            "in_core_bytes": self.in_core_bytes,
            "largest_shard_bytes": self.largest_shard_bytes,
            "total_halo": int(sum(s["n_halo"] for s in shards)),
            "partitioner": self.manifest.get("partitioner", "unknown"),
            "shards": [
                {k: s[k] for k in (
                    "index", "file", "bytes", "n_owned", "n_halo", "n_arcs",
                    "n_boundary_arcs", "degree_max",
                )}
                for s in shards
            ],
        }


def open_shard_set(path: Path | str) -> ShardSet:
    """Open a shard set from its directory or ``manifest.json`` path."""
    p = Path(path)
    if p.name == MANIFEST_NAME:
        p = p.parent
    manifest_path = p / MANIFEST_NAME
    if not manifest_path.is_file():
        raise GraphFormatError(f"{path}: no {MANIFEST_NAME} found")
    with open(manifest_path, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    return ShardSet(p, manifest)


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------
def _block_labels(graph: Graph, k: int) -> np.ndarray:
    """Contiguous vertex ranges balanced by arc mass (cheap fallback)."""
    n = graph.n_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    mass = np.diff(graph.offsets) + 1  # +1 spreads isolated vertices too
    csum = np.cumsum(mass)
    labels = (csum - mass) * k // int(csum[-1])
    return np.minimum(labels, k - 1).astype(np.int64)


def _partition_labels(
    graph: Graph, k: int, method: str, seed: int, ctx
) -> tuple[np.ndarray, str]:
    if k <= 1:
        return np.zeros(graph.n_vertices, dtype=np.int64), "single"
    if method == "block":
        return _block_labels(graph, k), "block"
    if method != "multilevel":
        raise SnapError(f"unknown shard partition method {method!r}")
    if graph.n_edges == 0 or graph.n_vertices < 2 * k:
        return _block_labels(graph, k), "block"
    from repro.partitioning.multilevel import multilevel_kway

    try:
        labels = multilevel_kway(
            graph, k, rng=np.random.default_rng(seed), ctx=ctx
        )
    except PartitioningError:
        return _block_labels(graph, k), "block"
    return np.asarray(labels, dtype=np.int64), "multilevel"


def build_shard_set(
    graph: Graph,
    out_dir: Path | str,
    *,
    k: Optional[int] = None,
    mem_budget: Optional[int] = None,
    labels: Optional[Sequence[int] | np.ndarray] = None,
    method: str = "multilevel",
    seed: int = 0,
    ctx=None,
) -> ShardSet:
    """Partition ``graph`` into ``k`` shards and persist them under
    ``out_dir``.

    ``k`` defaults to :func:`recommend_shards` applied to the graph's
    in-core bytes when ``mem_budget`` is given.
    ``labels`` overrides the partitioner with an explicit assignment.
    ``method`` selects ``"multilevel"`` (METIS-style, default) or
    ``"block"`` (contiguous arc-balanced ranges — O(n), used for quick
    builds at very large scale).
    """
    from repro.kernels.segments import concat_ranges

    if graph.directed:
        raise GraphStructureError("shard sets require an undirected graph")
    n = graph.n_vertices
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != n:
            raise GraphStructureError("labels must have one entry per vertex")
        k = int(labels.max()) + 1 if labels.shape[0] else 1
        partitioner = "given"
    else:
        if k is None:
            if mem_budget is None:
                raise SnapError("build_shard_set needs k, mem_budget or labels")
            k = recommend_shards(in_core_nbytes(graph), mem_budget)
        k = max(1, min(int(k), max(1, n)))
        labels, partitioner = _partition_labels(graph, k, method, seed, ctx)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    offsets_g, targets_g, weights_g = graph.offsets, graph.targets, graph.weights
    deg = np.diff(offsets_g)
    # Graph built by hand without an arc→edge map: stitch() then returns
    # the same shape, and an arc's edge id is its index, as in
    # ``Graph.arc_edge_ids`` (read here without caching it on ``graph``).
    has_eids = graph._arc_edge_ids is not None
    eids_g = graph._arc_edge_ids if has_eids else np.arange(graph.n_arcs)

    def shard_arcs():
        """Per shard: its owned ids, their degrees and their arcs (one
        slice when the owned rows are contiguous)."""
        for s in range(k):
            owned = np.flatnonzero(labels == s)
            lens, n_owned = deg[owned], owned.shape[0]
            if n_owned and owned[-1] - owned[0] == n_owned - 1:
                yield owned, lens, slice(offsets_g[owned[0]], offsets_g[owned[-1] + 1])
            else:
                yield owned, lens, concat_ranges(offsets_g[owned], lens)

    shard_entries = []
    total_bytes = 0
    mark = np.zeros(n, dtype=bool)
    g2l = np.empty(n, dtype=np.int64)
    for s, (owned, lens, arcs) in enumerate(shard_arcs()):
        n_owned, tgt = owned.shape[0], targets_g[arcs]
        mark[tgt] = True
        mark[owned] = False
        halo = np.flatnonzero(mark)  # ghost ids, ascending
        mark[halo] = False
        g2l[owned] = np.arange(n_owned)
        g2l[halo] = n_owned + np.arange(halo.shape[0])
        offsets_local = np.zeros(n_owned + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets_local[1:])
        targets_local = g2l[tgt]
        members = {
            "owned": owned,
            "halo": halo,
            "offsets": offsets_local,
            "targets": targets_local,
        }
        if weights_g is not None:
            members["weights"] = weights_g[arcs]
        if has_eids:
            members["arc_edge_ids"] = eids_g[arcs]
        fname = f"shard_{s:04d}.npz"
        crcs, nbytes = _write_npz(out / fname, members.items())
        total_bytes += nbytes
        shard_entries.append({
            "index": s,
            "file": fname,
            "bytes": nbytes,
            "n_owned": int(n_owned),
            "n_halo": int(halo.shape[0]),
            "n_arcs": int(tgt.shape[0]),
            "n_boundary_arcs": int(np.count_nonzero(targets_local >= n_owned)),
            "degree_min": int(lens.min()) if n_owned else 0,
            "degree_max": int(lens.max()) if n_owned else 0,
            "degree_mean": float(lens.mean()) if n_owned else 0.0,
            "crc32": crcs,
        })
        del members, targets_local
    del mark, g2l

    # Canonical edge stream (global edge-id order) for the chunked
    # modularity / contraction kernels: what ``edge_endpoints`` and
    # ``edge_weights`` return, one column in memory at a time — (u, v)
    # from each edge's arc with u <= v, w from its last arc.
    col = np.empty(graph.n_edges, dtype=np.int64)

    def edge_stream():
        for name in ("u", "v") if weights_g is None else ("u", "v", "w"):
            out_col = col.view(WEIGHT_DTYPE) if name == "w" else col
            for owned, lens, arcs in shard_arcs():
                src, tgt = np.repeat(owned, lens), targets_g[arcs]
                keep = src >= tgt if name == "w" else src <= tgt
                vals = src if name == "u" else tgt if name == "v" else weights_g[arcs]
                out_col[eids_g[arcs][keep]] = vals[keep]
                del src, vals, keep
            yield name, out_col

    stream_crcs, stream_bytes = _write_npz(out / EDGE_STREAM_NAME, edge_stream())
    total_bytes += stream_bytes
    total_weight = (
        float(col.view(WEIGHT_DTYPE).sum()) if weights_g is not None
        else float(graph.n_edges)
    )
    cut = int(sum(e["n_boundary_arcs"] for e in shard_entries)) // 2
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_vertices": int(n),
        "n_edges": int(graph.n_edges),
        "n_arcs": int(graph.n_arcs),
        "directed": False,
        "weighted": weights_g is not None,
        "has_arc_edge_ids": bool(has_eids),
        "k": int(k),
        "partitioner": partitioner,
        "total_weight_hex": total_weight.hex(),
        "edge_cut": cut,
        "total_bytes": int(total_bytes),
        "in_core_bytes": int(in_core_nbytes(graph)),
        "edge_stream": {
            "file": EDGE_STREAM_NAME,
            "bytes": stream_bytes,
            "crc32": stream_crcs,
        },
        "shards": shard_entries,
    }
    # The manifest is the shard set's commit point: it is written last,
    # atomically, so a crash mid-build leaves a directory `open_shard_set`
    # rejects rather than a torn manifest over valid-looking payloads.
    write_json_atomic(
        out / MANIFEST_NAME, manifest, indent=1, sort_keys=True
    )
    return ShardSet(out, manifest)
