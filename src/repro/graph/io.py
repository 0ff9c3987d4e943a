"""Graph file formats: edge list, METIS, DIMACS, and binary ``.npz``.

SNAP ships converters for the common exchange formats of its era; this
module provides the same surface.  All readers return CSR
:class:`~repro.graph.csr.Graph` objects; all writers accept them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import VERTEX_DTYPE, WEIGHT_DTYPE, Graph
from repro.graph import builder


@contextmanager
def _open_text(path_or_file, mode: str):
    """The path opened (and closed after), or the file object as is."""
    if isinstance(path_or_file, (str, os.PathLike)):
        with open(path_or_file, mode) as f:
            yield f
    else:
        yield path_or_file


def _fmt_weight(w) -> str:
    """Shortest decimal string that round-trips through ``float()``.

    ``{:g}`` keeps only 6 significant digits, so write→read used to lose
    weight precision; ``repr`` is exact for every finite float.
    """
    return repr(float(w))


# ---------------------------------------------------------------------------
# Plain edge lists:  "u v [w]" per line, '#' or '%' comments.
# ---------------------------------------------------------------------------
#: Characters of text parsed per array pass: a chunk's temporaries peak
#: near 2 MB (about 32 bytes per character of vertex ids).
READ_CHUNK = 1 << 16

# One class per byte (a bytes.translate table).  WS is the ASCII set
# str.split() splits on, less the line end; OTHER only in comments.
_WS, _NL, _TOKEN, _OTHER = range(1, 5)
_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_CLASS[list(b" \t\x0b\x0c\x1c\x1d\x1e\x1f")] = _WS
_CLASS[ord("\n")] = _NL
_CLASS[list(b"0123456789+-.eEiInNfFaAtTyY")] = _TOKEN
_CLASS = _CLASS.tobytes()
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_WEIGHT_CHARS = 32


def read_edge_list(
    path_or_file,
    *,
    directed: bool = False,
    n_vertices: Optional[int] = None,
) -> Graph:
    """Read a whitespace-separated edge list.

    Lines starting with ``#`` or ``%`` are comments.  A third column, if
    present on every edge line, is interpreted as the edge weight.
    """
    with _open_text(path_or_file, "r") as f:
        src_a, dst_a, w_a = _read_chunks(f)
    if n_vertices is None:
        n_vertices = int(max(src_a.max(), dst_a.max())) + 1 if src_a.shape[0] else 0
    return builder.from_edge_array(
        n_vertices, src_a, dst_a, weights=w_a, directed=directed
    )


def _read_chunks(f):
    """``(u, v, w or None)`` of the text left in ``f``, parsed as arrays
    in line-aligned chunks of :data:`READ_CHUNK` characters.  A chunk
    outside :func:`_parse_chunk`'s grammar, or mixed weight columns, hand
    the whole input to :func:`_read_lines`, the one source of errors."""
    try:
        start = f.tell()
    except OSError:  # unseekable: no second pass to fall back to
        return _read_lines(f)
    parts, carry, got = [], "", True
    while got:
        got = f.read(READ_CHUNK)
        text = carry + got
        cut = text.rfind("\n") + 1 if got else len(text)
        cols, carry = _parse_chunk(text[:cut]), text[cut:]
        if cols is None:
            break
        parts.append(cols)
    weighted = {w is not None for u, _, w in parts if u.shape[0]}
    if cols is None or len(weighted) > 1:
        f.seek(start)
        return _read_lines(f)
    u, v, w = zip(*parts)
    w = np.concatenate(w) if True in weighted else None
    return np.concatenate(u), np.concatenate(v), w


def _parse_chunk(text: str):
    """``(u, v, w or None)`` of ``text``'s lines, or None if one is
    outside the array grammar: ASCII ``u v [w ...]`` lines and comments,
    ids of a sign and 1-18 digits, weights NumPy casts (as ``float()``
    does) of at most 32 characters, on all lines or none."""
    if "\r" in text or not text.isascii():
        return None
    raw = (text + "\n" + " " * _WEIGHT_CHARS).encode()  # pad: see cells
    b = np.frombuffer(raw, dtype=np.uint8)
    cls = np.frombuffer(raw.translate(_CLASS), dtype=np.uint8)
    zero = np.int8(0)
    edge = np.diff((cls > _NL).view(np.int8), prepend=zero, append=zero)
    ends = np.flatnonzero(edge == -1)  # of each token
    # items: token starts and line ends, in text order
    item = np.flatnonzero((edge[:-1] == 1) | (cls == _NL))
    nl = np.flatnonzero(b[item] == ord("\n"))  # line k ends at item nl[k]
    count = np.diff(nl, prepend=-1) - 1  # tokens on each line
    first = nl - count  # item of each line's first token
    lead = b[item[first]]
    comment = (lead == ord("#")) | (lead == ord("%"))
    other = np.flatnonzero(cls == _OTHER)
    if not comment[np.searchsorted(item[nl], other)].all():
        return None
    line = np.flatnonzero((count > 0) & ~comment)
    if not line.shape[0]:
        return ends[:0], ends[:0], np.empty(0, dtype=WEIGHT_DTYPE)
    first, count = first[line], count[line]
    token = first - line  # index in ends of each line's first token
    if count.min() < 2 or count.min() < 3 <= count.max():
        return None
    # ids: an optional sign, then digit * 10^k summed over each token
    s = item[(first[:, None] + (0, 1)).ravel()]
    e = ends[(token[:, None] + (0, 1)).ravel()]
    neg = b[s] == ord("-")
    s += neg | (b[s] == ord("+"))
    size = e - s
    if size.min() < 1 or size.max() > 18:
        return None
    end = np.cumsum(size)  # the tokens' digits laid end to end
    k = np.repeat(end, size) - np.arange(1, end[-1] + 1)  # each digit's 10^k
    digit = b[np.repeat(e - 1, size) - k] - ord("0")  # k bytes before the last
    if digit.max() > 9:
        return None
    ids = np.add.reduceat(_POW10[k] * digit, end - size)
    np.negative(ids, out=ids, where=neg)
    if count.min() < 3:
        return ids[0::2], ids[1::2], None
    # weights: each token NUL-padded into an S-dtype cell NumPy casts
    s = item[first + 2]
    size = ends[token + 2] - s
    if size.max() > _WEIGHT_CHARS:
        return None
    cells = np.lib.stride_tricks.sliding_window_view(b, _WEIGHT_CHARS)[s]
    cells[np.arange(_WEIGHT_CHARS) >= size[:, None]] = 0
    try:
        w = cells.view(f"S{_WEIGHT_CHARS}").ravel().astype(WEIGHT_DTYPE)
    except ValueError:
        return None
    return ids[0::2], ids[1::2], w


def _read_lines(f):
    """The line loop: ``(u, v, w or None)`` of ``f``'s lines, raising
    the :class:`GraphFormatError` of the first bad one."""
    src, dst, wgt = [], [], []
    saw_weight = None
    for lineno, line in enumerate(f, 1):
        s = line.strip()
        if not s or s[0] in "#%":
            continue
        parts = s.split()
        if len(parts) < 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v [w]'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: bad vertex id") from exc
        w = None
        if len(parts) >= 3:
            try:
                w = float(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad weight") from exc
        if saw_weight is None:
            saw_weight = w is not None
        elif saw_weight != (w is not None):
            raise GraphFormatError(
                f"line {lineno}: inconsistent weight columns"
            )
        src.append(u)
        dst.append(v)
        if w is not None:
            wgt.append(w)
    w_a = np.asarray(wgt, dtype=WEIGHT_DTYPE) if saw_weight else None
    return np.asarray(src, dtype=VERTEX_DTYPE), np.asarray(dst, dtype=VERTEX_DTYPE), w_a


def write_edge_list(graph: Graph, path_or_file) -> None:
    """Write the canonical edge list (one ``u v [w]`` line per edge)."""
    with _open_text(path_or_file, "w") as f:
        u, v = graph.edge_endpoints()
        if graph.is_weighted:
            w = graph.edge_weights()
            for i in range(graph.n_edges):
                f.write(f"{int(u[i])} {int(v[i])} {_fmt_weight(w[i])}\n")
        else:
            for i in range(graph.n_edges):
                f.write(f"{int(u[i])} {int(v[i])}\n")


# ---------------------------------------------------------------------------
# METIS format: header "n m [fmt [ncon]]", then line i = neighbors of
# vertex i (1-indexed), interleaved with weights when fmt ends in "1".
# ---------------------------------------------------------------------------
def read_metis(path_or_file) -> Graph:
    """Read a graph in METIS ``.graph`` format (undirected)."""
    with _open_text(path_or_file, "r") as f:
        # Blank lines are significant in the body — they are the
        # adjacency of isolated vertices — so only comments are dropped.
        lines = [
            ln.strip() for ln in f if not ln.lstrip().startswith("%")
        ]
    while lines and not lines[0]:
        lines.pop(0)
    if not lines:
        raise GraphFormatError("empty METIS file")
    header = lines[0].split()
    fmt = header[2] if len(header) > 2 else "0"  # up to three 0/1 digits
    try:
        n, m, ncon = int(header[0]), int(header[1]), int((header[3:] or [1])[0])
        if len(header) > 4 or ncon < 1 or len(fmt) > 3 or fmt.strip("01"):
            raise ValueError
    except (IndexError, ValueError):
        raise GraphFormatError("METIS header must be 'n m [fmt [ncon]]'") from None
    # Tolerate extra trailing blank lines, but keep the n significant
    # ones (trailing isolated vertices round-trip as blank lines).
    while len(lines) - 1 > n and not lines[-1]:
        lines.pop()
    if len(lines) - 1 != n:
        raise GraphFormatError(
            f"METIS body has {len(lines) - 1} vertex lines, expected {n}"
        )
    # fmt digits: vertex sizes, vertex weights, edge weights.  Sizes and
    # weights lead each vertex line and are skipped: no vertex attributes.
    has_size, has_vwgt, has_ewgt = (c == "1" for c in fmt.zfill(3))
    skip = has_size + has_vwgt * ncon
    step = 2 if has_ewgt else 1
    src, dst, wgt = [], [], []
    for u, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) < skip:
            raise GraphFormatError(f"vertex {u + 1}: missing size or weights")
        tokens = tokens[skip:]
        if has_ewgt and len(tokens) % 2:
            raise GraphFormatError(f"vertex {u + 1}: odd token count with edge weights")
        try:
            for i in range(0, len(tokens), step):
                v = int(tokens[i]) - 1  # METIS is 1-indexed
                if not 0 <= v < n:
                    raise GraphFormatError(f"vertex {u + 1}: neighbor {v + 1} out of range")
                src.append(u)
                dst.append(v)
                if has_ewgt:
                    wgt.append(float(tokens[i + 1]))
        except ValueError as exc:
            raise GraphFormatError(f"vertex {u + 1}: bad neighbor or weight") from exc
    g = builder.from_edge_array(
        n,
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        weights=np.asarray(wgt, dtype=WEIGHT_DTYPE) if has_ewgt else None,
        directed=False,
    )
    if g.n_edges != m:
        raise GraphFormatError(
            f"METIS header declares m={m} but body contains {g.n_edges} unique edges"
        )
    return g


def write_metis(graph: Graph, path_or_file) -> None:
    """Write an undirected graph in METIS ``.graph`` format."""
    if graph.directed:
        raise GraphFormatError("METIS format is undirected")
    with _open_text(path_or_file, "w") as f:
        fmt = " 1" if graph.is_weighted else ""
        f.write(f"{graph.n_vertices} {graph.n_edges}{fmt}\n")
        for u in range(graph.n_vertices):
            adj = graph.neighbors(u)
            if graph.is_weighted:
                w = graph.neighbor_weights(u)
                f.write(
                    " ".join(
                        f"{int(t) + 1} {_fmt_weight(x)}" for t, x in zip(adj, w)
                    )
                    + "\n"
                )
            else:
                f.write(" ".join(str(int(t) + 1) for t in adj) + "\n")


# ---------------------------------------------------------------------------
# DIMACS format: "p sp n m" / "a u v w" (1-indexed, directed arcs).
# ---------------------------------------------------------------------------
def read_dimacs(path_or_file, *, directed: bool = True) -> Graph:
    """Read a 9th-DIMACS-challenge shortest-path graph file."""
    with _open_text(path_or_file, "r") as f:
        n = None
        src, dst, wgt = [], [], []
        for lineno, line in enumerate(f, 1):
            s = line.strip()
            if not s or s[0] == "c":
                continue
            parts = s.split()
            try:
                if parts[0] == "p":
                    if len(parts) != 4:
                        raise GraphFormatError(f"line {lineno}: bad problem line")
                    n = int(parts[2])
                elif parts[0] == "a":
                    if n is None:
                        raise GraphFormatError(f"line {lineno}: arc before problem line")
                    if len(parts) != 4:
                        raise GraphFormatError(f"line {lineno}: bad arc line")
                    src.append(int(parts[1]) - 1)
                    dst.append(int(parts[2]) - 1)
                    wgt.append(float(parts[3]))
                else:
                    raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad number") from exc
    if n is None:
        raise GraphFormatError("missing DIMACS problem line")
    return builder.from_edge_array(
        n,
        np.asarray(src, dtype=VERTEX_DTYPE),
        np.asarray(dst, dtype=VERTEX_DTYPE),
        weights=np.asarray(wgt, dtype=WEIGHT_DTYPE),
        directed=directed,
    )


def write_dimacs(graph: Graph, path_or_file) -> None:
    """Write a graph as DIMACS shortest-path arcs (both arcs if undirected)."""
    with _open_text(path_or_file, "w") as f:
        u, v = graph.edge_endpoints()
        w = graph.edge_weights()
        arcs = graph.n_edges if graph.directed else 2 * graph.n_edges
        f.write(f"p sp {graph.n_vertices} {arcs}\n")
        for i in range(graph.n_edges):
            f.write(f"a {int(u[i]) + 1} {int(v[i]) + 1} {_fmt_weight(w[i])}\n")
            if not graph.directed:
                f.write(f"a {int(v[i]) + 1} {int(u[i]) + 1} {_fmt_weight(w[i])}\n")


# ---------------------------------------------------------------------------
# Binary snapshot: .npz with the raw CSR arrays (fast, lossless).
# ---------------------------------------------------------------------------
def save_npz(graph: Graph, path) -> None:
    """Save the CSR arrays losslessly to a NumPy ``.npz`` archive."""
    payload = {
        "offsets": graph.offsets,
        "targets": graph.targets,
        "directed": np.asarray([graph.directed]),
        "n_edges": np.asarray([graph.n_edges]),
        "arc_edge_ids": graph.arc_edge_ids,
    }
    if graph.weights is not None:
        payload["weights"] = graph.weights
    np.savez_compressed(path, **payload)


def load_npz(path) -> Graph:
    """Load a graph saved by :func:`save_npz`."""
    with np.load(path) as data:
        try:
            return Graph(
                data["offsets"],
                data["targets"],
                directed=bool(data["directed"][0]),
                weights=data["weights"] if "weights" in data else None,
                arc_edge_ids=np.ascontiguousarray(data["arc_edge_ids"]),
                n_edges=int(data["n_edges"][0]),
            )
        except KeyError as exc:
            raise GraphFormatError(f"missing array in npz: {exc}") from exc


# ---------------------------------------------------------------------------
# Extension-dispatched reader (shared by the CLI and the serve registry).
# ---------------------------------------------------------------------------
#: suffix -> reader; anything else parses as a whitespace edge list.
READERS = {
    ".graph": read_metis,
    ".metis": read_metis,
    ".gr": read_dimacs,
    ".dimacs": read_dimacs,
    ".npz": load_npz,
}


def read_auto(path, *, directed: bool = False) -> Graph:
    """Read a graph file, choosing the format by file extension.

    METIS (``.graph``/``.metis``), DIMACS (``.gr``/``.dimacs``) and
    binary ``.npz`` are recognized; everything else is parsed as a
    whitespace ``u v [w]`` edge list.  ``directed`` applies to the
    formats that do not encode directedness themselves.
    """
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    reader = READERS.get(suffix)
    if reader is read_dimacs:
        return reader(path, directed=directed)
    if reader is read_metis or reader is load_npz:
        return reader(path)
    return read_edge_list(path, directed=directed)
