"""Numba-compiled kernel bodies for the opt-in ``compiled`` tier.

Each hot loop lives here twice under one name: a plain-Python body
(prefixed ``_py_``) and, when numba is importable, its ``njit``-wrapped
Dispatcher exported under the public name.  Without numba the public
names alias the plain-Python bodies, so the module always imports —
the dispatch layer (:mod:`repro.kernels.dispatch`) simply never routes
production calls here unless :func:`HAVE_NUMBA` is true.  The raw
bodies stay directly callable either way, which is what lets the
tier-parity unit tests run in numba-free environments.

Bit-identity contract (DESIGN §9): every kernel replays the *exact*
floating-point operation order of its numpy reference —

* segmented float sums accumulate left-to-right per segment, matching
  the reference's ``np.bincount`` scalar loop (``add.reduceat`` is NOT
  the reference for float64 — its SIMD inner reduction forms
  alignment-dependent partial sums);
* the Brandes δ-accumulation is two-phase (compute every arc's
  contribution from the *pre-update* δ plane, then scatter in arc
  order), matching numpy's gather-compute-``np.add.at`` sequence;
* the pLA best-move scan accumulates each (vertex, label) group's
  weight in CSR arc order — the order a stable lexsort presents the
  same arcs to ``reduceat`` — and evaluates ΔQ with the reference's
  parenthesization;
* ties break exactly as the numpy tier's first-index / smallest-label
  rules do.

Kernels fill caller-allocated output arrays: dtype policy stays in the
Python wrappers (``segments.py`` etc.) and numba never has to infer an
allocation dtype.  ``fastmath`` is never enabled — reassociation would
break the bit-identity contract.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the only path in bare envs
    _njit = None
    HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# Segment primitives
# ---------------------------------------------------------------------------
def _py_segment_sums_fill(values, offsets, out):
    """out[i] = sum(values[offsets[i]:offsets[i+1]]), left-to-right."""
    for i in range(offsets.shape[0] - 1):
        acc = out[i]  # the zero of out's dtype
        for j in range(offsets[i], offsets[i + 1]):
            acc = acc + values[j]
        out[i] = acc


def _py_segment_maxes_fill(values, offsets, out):
    """out[i] = max of segment i; empty segments keep out's prefill."""
    for i in range(offsets.shape[0] - 1):
        lo = offsets[i]
        hi = offsets[i + 1]
        if hi > lo:
            m = values[lo]
            for j in range(lo + 1, hi):
                if values[j] > m:
                    m = values[j]
            out[i] = m


def _py_segment_argmax_fill(values, offsets, out):
    """out[i] = global index of segment i's max, first-index tie-break."""
    for i in range(offsets.shape[0] - 1):
        lo = offsets[i]
        hi = offsets[i + 1]
        if hi > lo:
            best = values[lo]
            bj = lo
            for j in range(lo + 1, hi):
                if values[j] > best:
                    best = values[j]
                    bj = j
            out[i] = bj


def _py_intersect_count(offsets, targets, left, right, counts):
    """Per-pair sorted-adjacency intersection sizes (binary probes).

    Mirrors the numpy tier's orientation rule: the strictly larger
    segment is the haystack, the smaller (or equal) one is probed.
    """
    for p in range(left.shape[0]):
        a = left[p]
        b = right[p]
        if offsets[a + 1] - offsets[a] > offsets[b + 1] - offsets[b]:
            a, b = b, a
        lo_b = offsets[b]
        hi_b = offsets[b + 1]
        c = 0
        for j in range(offsets[a], offsets[a + 1]):
            q = targets[j]
            lo = lo_b
            hi = hi_b
            while lo < hi:
                mid = (lo + hi) >> 1
                if targets[mid] < q:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < hi_b and targets[lo] == q:
                c += 1
        counts[p] = c


def _py_intersect_fill(offsets, targets, left, right, starts, common, pair_ids):
    """Emit the common elements counted by :func:`_py_intersect_count`.

    Matches the numpy tier's output order: pairs ascending, and within
    a pair the probed (smaller, sorted) segment's order — ascending
    target value.
    """
    for p in range(left.shape[0]):
        a = left[p]
        b = right[p]
        if offsets[a + 1] - offsets[a] > offsets[b + 1] - offsets[b]:
            a, b = b, a
        lo_b = offsets[b]
        hi_b = offsets[b + 1]
        k = starts[p]
        for j in range(offsets[a], offsets[a + 1]):
            q = targets[j]
            lo = lo_b
            hi = hi_b
            while lo < hi:
                mid = (lo + hi) >> 1
                if targets[mid] < q:
                    lo = mid + 1
                else:
                    hi = mid
            if lo < hi_b and targets[lo] == q:
                common[k] = q
                pair_ids[k] = p
                k += 1


# ---------------------------------------------------------------------------
# pLA synchronized sweep
# ---------------------------------------------------------------------------
def _py_sweep_best_moves(
    src, tgt, w, labels, strength_v, S, W, acc, mark, touched,
    vid, best_lab, best_gain,
):
    """Best adjacent-cluster move per vertex by exact ΔQ.

    ``src`` must be nondecreasing (CSR arc order, self-loops removed).
    ``acc`` is a label-indexed accumulator, ``mark`` a label-indexed
    stamp array prefilled with -1, ``touched`` scratch for the labels
    adjacent to the current vertex.  Returns the number of distinct
    source vertices; rows ``[:count]`` of ``vid``/``best_lab``/
    ``best_gain`` are (vertex, best label, best ΔQ), with
    ``best_lab = -1`` when the vertex has no cross-label candidate
    (``best_gain = -inf`` there).
    """
    m = src.shape[0]
    denom = 2.0 * W * W
    cnt = 0
    i = 0
    while i < m:
        v = src[i]
        j = i
        nt = 0
        # Accumulate w(v -> label) in CSR arc order (the order a stable
        # (src, label) lexsort feeds the same arcs to reduceat).
        while j < m and src[j] == v:
            lab = labels[tgt[j]]
            if mark[lab] != v:
                mark[lab] = v
                acc[lab] = 0.0
                touched[nt] = lab
                nt += 1
            acc[lab] = acc[lab] + w[j]
            j += 1
        own = labels[v]
        kv = strength_v[v]
        own_s = S[own]
        w_own = acc[own] if mark[own] == v else 0.0
        bg = -np.inf
        bl = -1
        for t in range(nt):
            lab = touched[t]
            if lab == own:
                continue
            gain = (acc[lab] - w_own) / W - kv * (S[lab] - (own_s - kv)) / denom
            # Max gain, smallest label on ties — the numpy tier's
            # (vertex, label)-sorted first-index argmax rule.
            if gain > bg or (gain == bg and lab < bl):
                bg = gain
                bl = lab
        vid[cnt] = v
        best_lab[cnt] = bl
        best_gain[cnt] = bg
        cnt += 1
        i = j
    return cnt


# ---------------------------------------------------------------------------
# Brandes backward accumulation
# ---------------------------------------------------------------------------
def _py_brandes_accumulate(
    u_flat, v_flat, eids, w, inv_sigma, delta_flat, edge_partial, contrib
):
    """One backward level of batched Brandes: δ and edge accumulation.

    Two phases to match numpy's gather-then-``np.add.at`` semantics
    exactly: every arc's contribution is computed from the pre-update
    δ plane first, then scattered sequentially in arc order.
    """
    m = u_flat.shape[0]
    for i in range(m):
        vf = v_flat[i]
        contrib[i] = w[i] * inv_sigma[vf] * (1.0 + delta_flat[vf])
    for i in range(m):
        delta_flat[u_flat[i]] = delta_flat[u_flat[i]] + contrib[i]
        e = eids[i]
        edge_partial[e] = edge_partial[e] + contrib[i]


# ---------------------------------------------------------------------------
# JIT wrapping
# ---------------------------------------------------------------------------
_BODIES = {
    "segment_sums_fill": _py_segment_sums_fill,
    "segment_maxes_fill": _py_segment_maxes_fill,
    "segment_argmax_fill": _py_segment_argmax_fill,
    "intersect_count": _py_intersect_count,
    "intersect_fill": _py_intersect_fill,
    "sweep_best_moves": _py_sweep_best_moves,
    "brandes_accumulate": _py_brandes_accumulate,
}

if HAVE_NUMBA:
    # nogil so thread-backend workers overlap inside compiled regions;
    # no cache= (filesystem-dependent) and never fastmath (see above).
    JIT_KERNELS = {
        name: _njit(nogil=True)(body) for name, body in _BODIES.items()
    }
else:
    JIT_KERNELS = dict(_BODIES)

segment_sums_fill = JIT_KERNELS["segment_sums_fill"]
segment_maxes_fill = JIT_KERNELS["segment_maxes_fill"]
segment_argmax_fill = JIT_KERNELS["segment_argmax_fill"]
intersect_count = JIT_KERNELS["intersect_count"]
intersect_fill = JIT_KERNELS["intersect_fill"]
sweep_best_moves = JIT_KERNELS["sweep_best_moves"]
brandes_accumulate = JIT_KERNELS["brandes_accumulate"]


def signature_counts() -> dict:
    """Compiled specialization counts per kernel (all zero without numba).

    The warm-up regression test asserts these do not grow between two
    identical calls — i.e. the second call is a cache hit, not a
    recompilation.
    """
    if not HAVE_NUMBA:
        return {name: 0 for name in JIT_KERNELS}
    return {name: len(fn.signatures) for name, fn in JIT_KERNELS.items()}
