"""Edge-centric segment primitives over CSR arrays (paper §3).

SNAP's speed comes from running every kernel on cache-friendly
contiguous arrays with fine-grained data-parallel primitives.  This
module is the shared vocabulary for the community/refinement layer:
instead of per-vertex Python loops, the hot paths express themselves as

* **segmented reductions** — per-segment sum / max / argmax over a flat
  value array split at offsets (``np.add.reduceat`` with exact
  empty-segment handling);
* **composite-key grouping** — :func:`pair_order` sorts an integer pair
  stream with one stable argsort; on top, collapse an (key₁, key₂,
  value) arc stream into per-group sums in one sort pass (the
  label-weight accumulation of synchronized local moving and coarsening);
* **vectorized sorted-adjacency intersection** — a merge-path /
  batched-binary-search intersection of many adjacency-segment pairs at
  once (triangle counting without a Python loop over edges);
* **boundary-vertex detection** — the cross-label frontier used by the
  k-way refinement sweeps;
* **work blocking** — :func:`chunk_bounds`, so a kernel's transients
  stay a fixed size instead of growing with m (DESIGN §1.2), and
  :func:`reduce_over_rows`, a per-row fold over CSR arcs in blocks of
  ``ARC_CHUNK`` arcs.

All functions are pure and deterministic: identical inputs produce
bit-identical outputs on every execution backend, which is what lets
the rewritten community kernels keep backend parity and differential
equivalence (DESIGN §7).

Each primitive has one implementation (DESIGN §9).  Integer inputs
widen to int64 sums; float dtypes are preserved.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "segment_sums",
    "segment_maxes",
    "segment_argmax",
    "pair_order",
    "group_offsets",
    "grouped_label_weights",
    "boundary_vertices",
    "distinct",
    "chunk_bounds",
    "concat_ranges",
    "reduce_over_rows",
    "intersect_sorted_segments",
]


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums: ``out[i] = values[offsets[i]:offsets[i+1]].sum()``.

    Empty segments sum to 0.  float64 segments accumulate strictly
    left-to-right (a ``bincount`` scalar loop — NOT ``add.reduceat``,
    whose SIMD partial sums reorder additions by slice alignment); the
    pinned digests of ``tests/test_pinned_identity.py`` depend on that
    order.  Integer sums are exact, so they use ``reduceat``
    restricted to non-empty starts — between one non-empty segment's
    end and the next non-empty start there are no elements, so the
    reduceat groups are exactly the requested segments.
    """
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_seg = offsets.shape[0] - 1
    out = np.zeros(n_seg, dtype=values.dtype if values.dtype.kind == "f" else np.int64)
    if n_seg == 0 or values.shape[0] == 0:
        return out
    if values.dtype == np.float64:
        # Sequential left-to-right accumulation per segment (bincount's
        # C loop adds in index order, one scalar add per element) — the
        # order the pinned clustering/partition digests were taken in.
        # reduceat would be wrong here: its vectorized inner reduction
        # forms alignment-dependent partial sums.
        seg_of = np.repeat(np.arange(n_seg, dtype=np.int64), np.diff(offsets))
        return np.bincount(seg_of, weights=values, minlength=n_seg)
    nonempty = offsets[1:] > offsets[:-1]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty])
    return out


def segment_maxes(
    values: np.ndarray,
    offsets: np.ndarray,
    *,
    fill: float = -np.inf,
) -> np.ndarray:
    """Per-segment maxima; empty segments report ``fill``."""
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_seg = offsets.shape[0] - 1
    out = np.full(n_seg, fill, dtype=np.float64)
    if n_seg == 0 or values.shape[0] == 0:
        return out
    nonempty = offsets[1:] > offsets[:-1]
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(values, offsets[:-1][nonempty])
    return out


def segment_argmax(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment argmax as *global* indices into ``values``.

    Ties break toward the smallest index (NumPy's ``argmax`` rule);
    empty segments report ``-1``.
    """
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    n_seg = offsets.shape[0] - 1
    out = np.full(n_seg, -1, dtype=np.int64)
    if n_seg == 0 or values.shape[0] == 0:
        return out
    maxes = segment_maxes(values, offsets)
    lengths = np.diff(offsets)
    seg_of = np.repeat(np.arange(n_seg, dtype=np.int64), lengths)
    n = values.shape[0]
    idx = np.where(values == maxes[seg_of], np.arange(n, dtype=np.int64), n)
    nonempty = lengths > 0
    if nonempty.any():
        out[nonempty] = np.minimum.reduceat(idx, offsets[:-1][nonempty])
    return out


def pair_order(major: np.ndarray, minor: np.ndarray, n_minor: int) -> np.ndarray:
    """Stable permutation sorting integer pairs by ``(major, minor)``.

    Exactly ``np.lexsort((minor, major))`` for ``minor`` in
    ``[0, n_minor)``, as ONE stable argsort of the int64 key
    ``major * n_minor + minor``: on a CSR-ordered arc stream the key is
    short unsorted runs inside a sorted frame, which the stable sort
    merges in near-linear time where lexsort always pays two full
    passes (DESIGN §1.2c).  The result depends only on the order of the
    pairs, not on ``n_minor``.  Raises ``ValueError`` when the key
    would overflow int64.
    """
    major = np.asarray(major, dtype=np.int64)
    if major.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    n_minor = max(int(n_minor), 1)
    bound = np.iinfo(np.int64).max // n_minor
    if int(major.max()) >= bound or int(major.min()) <= -bound:
        raise ValueError(f"pair_order: major * {n_minor} overflows int64")
    return np.argsort(major * n_minor + minor, kind="stable")


def group_offsets(*keys: np.ndarray) -> np.ndarray:
    """Run boundaries of equal composite keys in pre-sorted arrays.

    ``keys`` are parallel arrays already sorted so that equal composite
    keys are contiguous (e.g. gathered through :func:`pair_order`).
    Returns the offsets array (length ``n_groups + 1``) delimiting each
    run; slicing any parallel array with consecutive offsets yields one
    group.
    """
    n = keys[0].shape[0]
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    starts = np.nonzero(change)[0]
    return np.append(starts, n).astype(np.int64)


def grouped_label_weights(
    src: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate ``weights`` over equal ``(src, label)`` pairs.

    The arc stream need not be sorted; ``labels`` are non-negative.
    Returns ``(gsrc, glab, gsum)`` sorted by ``(src, label)`` — one row
    per distinct pair, each sum accumulated in the stream's original
    order within the pair.  This is the label-weight accumulation
    underneath synchronized local moving: for every vertex, its total
    edge weight into each adjacent cluster, in one :func:`pair_order`
    pass instead of a per-vertex dict.
    """
    order = pair_order(src, labels, int(labels.max(initial=0)) + 1)
    s, l, w = src[order], labels[order], weights[order]
    offs = group_offsets(s, l)
    firsts = offs[:-1]
    return s[firsts], l[firsts], segment_sums(w, offs)


def boundary_vertices(
    src: np.ndarray,
    targets: np.ndarray,
    labels: np.ndarray,
    n_vertices: int,
) -> np.ndarray:
    """Boolean mask of vertices with at least one cross-label arc."""
    mask = np.zeros(n_vertices, dtype=bool)
    if src.shape[0]:
        cross = labels[src] != labels[targets]
        mask[src[cross]] = True
    return mask


def distinct(values) -> np.ndarray:
    """``np.unique(values)`` for integer input, by one sort.  numpy's
    own one-argument ``unique`` asks ``np.ma.is_masked``, which imports
    ``numpy.ma`` into every process that calls it."""
    out = np.sort(np.asarray(values), axis=None)
    keep = np.ones(out.shape[0], dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def chunk_bounds(work: np.ndarray, limit: int) -> np.ndarray:
    """Cut points so each block ``[b[i], b[i+1])`` sums ≲ ``limit`` work
    (it overshoots by less than its last item: a heavier item is a block
    of its own)."""
    nv = work.shape[0]
    if nv == 0:
        return np.zeros(1, dtype=np.int64)
    cum = np.cumsum(work, dtype=np.int64)
    total = int(cum[-1])
    if total <= limit:
        return np.array([0, nv], dtype=np.int64)
    cuts = np.searchsorted(
        cum, np.arange(limit, total, limit, dtype=np.int64), side="left",
    ) + 1
    return distinct(np.concatenate((
        np.zeros(1, dtype=np.int64), cuts, np.array([nv], dtype=np.int64)
    )))


#: Arcs per block of :func:`reduce_over_rows` and the sharded push
#: expansion: a row fold holds O(ARC_CHUNK) transients, never O(arcs).
#: Blocks are row-aligned, so blocking never changes a result.  Read at
#: call time, so a test can shrink it.
ARC_CHUNK = 1 << 21


def concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lens)])``."""
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.repeat(starts, lens)
    csum = np.cumsum(lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(csum - lens, lens)
    return out + within


def reduce_over_rows(
    ufunc,
    vals: np.ndarray,
    offsets: np.ndarray,
    targets: np.ndarray,
    out: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fold ``ufunc`` over each CSR row's target values into ``out``
    (``vals`` is indexed by target id; rows without arcs keep
    ``out[r]``), walking the arcs in ``ARC_CHUNK`` blocks.  With
    ``rows`` (ascending row ids) only those rows are folded."""
    offs, tg = offsets, targets
    starts = offs[:-1] if rows is None else offs.take(rows)
    deg = (offs[1:] if rows is None else offs.take(rows + 1)) - starts
    bounds = chunk_bounds(deg, ARC_CHUNK)
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        nz = b0 + np.flatnonzero(deg[b0:b1])
        if not nz.shape[0]:
            continue
        if rows is None:  # whole rows are one contiguous arc range
            arcs, heads, dest = tg[offs[b0]:offs[b1]], offs[nz] - offs[b0], nz
        else:
            lens = deg.take(nz)
            arcs = tg.take(concat_ranges(starts.take(nz), lens))
            heads, dest = np.cumsum(lens) - lens, rows.take(nz)
        out[dest] = ufunc(out[dest], ufunc.reduceat(vals.take(arcs), heads))
    return out


def intersect_sorted_segments(
    offsets: np.ndarray,
    targets: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersect many sorted adjacency-segment pairs at once.

    For each pair ``i``, intersects the sorted segments
    ``targets[offsets[left[i]]:offsets[left[i]+1]]`` and
    ``targets[offsets[right[i]]:offsets[right[i]+1]]``.  The smaller
    segment of each pair is probed into the larger through a *single*
    ``np.searchsorted`` over the composite keys
    ``segment_id · stride + target`` — CSR segments are individually
    sorted, so the composite array is globally sorted and every probe
    of every pair is one C-level binary search, ``O(Σ min(dᵤ, dᵥ) ·
    log Σd)`` with no per-pair Python dispatch.

    Returns ``(counts, common, pair_ids)``: per-pair intersection
    sizes, the concatenated common elements, and for each common
    element the pair index it came from.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    return _probe_segments(
        offsets, targets, *_segment_keys(offsets, targets), left, right
    )


def _segment_keys(offsets: np.ndarray, targets: np.ndarray) -> tuple:
    """``(keys, stride)``: every arc as ``segment · stride + target``,
    globally sorted because each CSR segment is; built once per graph."""
    n_seg = offsets.shape[0] - 1
    stride = np.int64(max(int(targets.max(initial=0)) + 1, n_seg, 1))
    keys = np.repeat(np.arange(n_seg, dtype=np.int64), np.diff(offsets))
    keys *= stride
    keys += targets
    return keys, stride


def _probe_segments(offsets, targets, keys, stride, left, right) -> tuple:
    """:func:`intersect_sorted_segments` over prebuilt int64 ``keys``."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    n_pairs = left.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if n_pairs == 0:
        return np.zeros(0, dtype=np.int64), empty, empty

    deg = np.diff(offsets)
    # Orient each pair: probe the smaller segment into the larger.
    swap = deg[left] > deg[right]
    small = np.where(swap, right, left)
    big = np.where(swap, left, right)

    q_counts = deg[small]
    total = int(q_counts.sum())
    if total == 0:
        return np.zeros(n_pairs, dtype=np.int64), empty, empty
    pair_of_q = np.repeat(np.arange(n_pairs, dtype=np.int64), q_counts)
    ends = np.cumsum(q_counts)
    q_rank = np.arange(total, dtype=np.int64) - np.repeat(ends - q_counts, q_counts)
    queries = targets[offsets[small][pair_of_q] + q_rank]

    # One vectorized lower-bound search over the sorted composite keys
    # answers every membership probe.
    probe = big[pair_of_q] * stride + queries
    pos = np.searchsorted(keys, probe)
    found = np.zeros(total, dtype=bool)
    inb = pos < keys.shape[0]
    found[inb] = keys[pos[inb]] == probe[inb]
    counts = np.bincount(pair_of_q[found], minlength=n_pairs).astype(np.int64)
    return counts, queries[found], pair_of_q[found]

