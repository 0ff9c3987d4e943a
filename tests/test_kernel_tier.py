"""Kernel-tier dispatch and compiled-kernel parity (DESIGN §9).

Two layers of coverage, both meaningful without numba installed:

* **dispatch semantics** — tier resolution order (explicit > ambient
  ``use_tier`` > ``REPRO_KERNEL_TIER`` > auto), the size crossover, the
  one-time missing-numba fallback warning, dtype fall-through, and the
  observability plumbing (``ParallelContext.tier_dispatches``,
  ``RunResult.kernel_tiers``, the ``--kernel-tier`` CLI flag).  Where a
  test needs the compiled branch taken, ``HAVE_NUMBA`` is monkeypatched
  on: the "compiled" kernels are then the raw interpreted bodies, which
  execute identically (numba compiles them without changing semantics).
* **bit-identity of the kernel bodies** — every ``_py_*`` body in
  :mod:`repro.kernels._compiled` is compared against its numpy
  reference on randomized inputs with ``np.array_equal`` (no float
  tolerance).  These bodies are exactly what numba jits, so this is
  the numba-free half of the parity contract; the jitted half runs in
  ``test_backend_parity.py::test_kernel_tier_parity`` where numba is
  present.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.datasets.karate import karate_club
from repro.generators.rmat import rmat
from repro.kernels import _compiled, dispatch
from repro.kernels.segments import (
    _intersect_sorted_segments_compiled,
    _intersect_sorted_segments_numpy,
    _segment_argmax_numpy,
    _segment_maxes_numpy,
    _segment_sums_numpy,
    group_offsets,
    segment_sums,
)
from repro.parallel.runtime import ParallelContext


@pytest.fixture
def fresh_dispatch(monkeypatch):
    """Reset dispatch module state that tests poke at."""
    monkeypatch.setattr(dispatch, "_WARNED_MISSING", False)
    monkeypatch.setattr(dispatch, "_crossover_override", None)
    monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
    monkeypatch.delenv("REPRO_KERNEL_CROSSOVER", raising=False)
    return dispatch


@pytest.fixture
def fake_numba(monkeypatch, fresh_dispatch):
    """Pretend numba is importable: the njit aliases stay the raw
    interpreted bodies, so compiled-branch code paths execute with
    identical semantics (just slower)."""
    monkeypatch.setattr(_compiled, "HAVE_NUMBA", True)
    monkeypatch.setattr(dispatch, "_WARMED", True)  # bodies need no JIT
    return fresh_dispatch


# ---------------------------------------------------------------------------
# Tier resolution
# ---------------------------------------------------------------------------
def test_resolve_explicit_numpy(fresh_dispatch):
    assert dispatch.resolve_tier("numpy") == "numpy"
    assert dispatch.resolve_tier("numpy", size=1 << 30) == "numpy"


def test_resolve_invalid_tier_raises(fresh_dispatch):
    with pytest.raises(ValueError, match="kernel tier"):
        dispatch.resolve_tier("jit")


def test_auto_without_numba_is_numpy(fresh_dispatch, monkeypatch):
    monkeypatch.setattr(_compiled, "HAVE_NUMBA", False)
    assert dispatch.resolve_tier(None) == "numpy"
    assert dispatch.resolve_tier("auto", size=1 << 30) == "numpy"


def test_explicit_compiled_without_numba_warns_once(fresh_dispatch, monkeypatch):
    monkeypatch.setattr(_compiled, "HAVE_NUMBA", False)
    with pytest.warns(RuntimeWarning, match="numba is not installed"):
        assert dispatch.resolve_tier("compiled") == "numpy"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second request: no new warning
        assert dispatch.resolve_tier("compiled") == "numpy"


def test_auto_crossover(fake_numba):
    assert dispatch.resolve_tier("auto", size=dispatch.crossover() - 1) == "numpy"
    assert dispatch.resolve_tier("auto", size=dispatch.crossover()) == "compiled"
    assert dispatch.resolve_tier("auto", size=None) == "compiled"
    dispatch.set_crossover(10)
    assert dispatch.crossover() == 10
    assert dispatch.resolve_tier("auto", size=11) == "compiled"
    dispatch.set_crossover(None)
    assert dispatch.crossover() == dispatch.DEFAULT_CROSSOVER


def test_crossover_env(fake_numba, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "100")
    assert dispatch.crossover() == 100
    monkeypatch.setenv("REPRO_KERNEL_CROSSOVER", "not-an-int")
    with pytest.warns(RuntimeWarning, match="REPRO_KERNEL_CROSSOVER"):
        assert dispatch.crossover() == dispatch.DEFAULT_CROSSOVER


def test_env_var_tier(fake_numba, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_TIER", "numpy")
    assert dispatch.resolve_tier(None, size=1 << 30) == "numpy"
    monkeypatch.setenv("REPRO_KERNEL_TIER", "compiled")
    assert dispatch.resolve_tier(None, size=1) == "compiled"


def test_use_tier_ambient(fake_numba, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_TIER", "compiled")
    with dispatch.use_tier("numpy"):  # ambient beats env
        assert dispatch.resolve_tier(None, size=1 << 30) == "numpy"
        with dispatch.use_tier("compiled"):
            assert dispatch.resolve_tier(None, size=1) == "compiled"
        assert dispatch.resolve_tier(None) == "numpy"
    with pytest.raises(ValueError):
        dispatch.use_tier("jit")


def test_registry_covers_expected_kernels():
    names = dispatch.kernels_registered()
    for expected in (
        "segment_sums", "segment_maxes", "segment_argmax",
        "intersect_sorted_segments", "pla_sweep", "brandes_accumulate",
    ):
        assert expected in names


def test_call_unsupported_dtype_falls_through(fake_numba):
    # int32 values are outside the compiled specialization set: the
    # compiled variant declines and the reference answers — with its
    # int64-widened output dtype either way.
    values = np.asarray([1, 2, 3, 4], dtype=np.int32)
    offsets = np.asarray([0, 2, 4], dtype=np.int64)
    out = segment_sums(values, offsets, tier="compiled")
    assert out.dtype == np.int64
    assert np.array_equal(out, [3, 7])


# ---------------------------------------------------------------------------
# Kernel-body bit-identity vs the numpy references
# ---------------------------------------------------------------------------
def _random_segments(rng, n_seg=64, n_vals=512, dtype=np.float64):
    cuts = np.sort(rng.integers(0, n_vals + 1, size=n_seg - 1))
    offsets = np.concatenate(([0], cuts, [n_vals])).astype(np.int64)
    if dtype == np.float64:
        values = rng.random(n_vals)
        # duplicated values exercise the argmax first-index tie-break
        values[rng.integers(0, n_vals, size=n_vals // 4)] = 0.5
    else:
        values = rng.integers(-1000, 1000, size=n_vals).astype(dtype)
    return values, offsets


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_segment_sums_body_parity(dtype):
    rng = np.random.default_rng(0)
    values, offsets = _random_segments(rng, dtype=dtype)
    ref = _segment_sums_numpy(values, offsets)
    out = np.zeros(offsets.shape[0] - 1, dtype=dtype)
    _compiled._py_segment_sums_fill(values, offsets, out)
    assert out.dtype == ref.dtype
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_segment_maxes_body_parity(dtype):
    rng = np.random.default_rng(1)
    values, offsets = _random_segments(rng, dtype=dtype)
    ref = _segment_maxes_numpy(values, offsets)
    out = np.full(offsets.shape[0] - 1, -np.inf, dtype=np.float64)
    _compiled._py_segment_maxes_fill(values, offsets, out)
    assert np.array_equal(out, ref)


def test_segment_argmax_body_parity():
    rng = np.random.default_rng(2)
    values, offsets = _random_segments(rng)
    ref = _segment_argmax_numpy(values, offsets)
    out = np.full(offsets.shape[0] - 1, -1, dtype=np.int64)
    _compiled._py_segment_argmax_fill(values, offsets, out)
    assert np.array_equal(out, ref)


def test_intersect_body_parity():
    g = rmat(9, 8.0, rng=np.random.default_rng(3)).as_undirected()
    u, v = g.edge_endpoints()
    ref = _intersect_sorted_segments_numpy(g.offsets, g.targets, u, v)
    got = _intersect_sorted_segments_compiled(g.offsets, g.targets, u, v)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def test_intersect_empty_pairs():
    offsets = np.asarray([0, 2, 4], dtype=np.int64)
    targets = np.asarray([0, 1, 0, 1], dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    ref = _intersect_sorted_segments_numpy(offsets, targets, none, none)
    got = _intersect_sorted_segments_compiled(offsets, targets, none, none)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def test_sweep_best_moves_body_parity():
    from repro.community.pla import (
        _best_moves_compiled,
        _best_moves_numpy,
        _loopless_arcs,
        _vertex_strengths,
    )

    for seed in (0, 7):
        g = rmat(8, 8.0, rng=np.random.default_rng(seed)).as_undirected()
        rng = np.random.default_rng(seed + 100)
        # random labels (not just singletons) exercise own-label runs,
        # merged groups and the no-candidate -1 sentinel
        labels = rng.integers(0, g.n_vertices, size=g.n_vertices)
        labels = np.unique(labels, return_inverse=True)[1].astype(np.int64)
        sv = _vertex_strengths(g)
        src, tgt, w = _loopless_arcs(g)
        W = float(g.edge_weights().sum())
        S = np.bincount(labels, weights=sv, minlength=g.n_vertices)
        ref = _best_moves_numpy(labels, sv, S, W, src, tgt, w)
        got = _best_moves_compiled(labels, sv, S, W, src, tgt, w)
        assert got is not NotImplemented
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)


def test_sweep_best_moves_declines_unsorted_src():
    from repro.community.pla import _best_moves_compiled

    src = np.asarray([1, 0], dtype=np.int64)
    tgt = np.asarray([0, 1], dtype=np.int64)
    one = np.ones(2, dtype=np.float64)
    labels = np.asarray([0, 1], dtype=np.int64)
    out = _best_moves_compiled(labels, one, one, 1.0, src, tgt, one)
    assert out is NotImplemented


def test_brandes_accumulate_body_parity():
    rng = np.random.default_rng(5)
    m, nflat, ne = 700, 300, 120
    u = rng.integers(0, nflat, m)
    v = rng.integers(0, nflat, m)
    e = rng.integers(0, ne, m)
    w = rng.random(m)
    inv = rng.random(nflat)
    delta_ref = rng.random(nflat)
    ep_ref = rng.random(ne)
    delta_got, ep_got = delta_ref.copy(), ep_ref.copy()

    contrib_ref = w * inv[v] * (1.0 + delta_ref[v])
    np.add.at(delta_ref, u, contrib_ref)
    np.add.at(ep_ref, e, contrib_ref)

    contrib_got = np.empty(m)
    _compiled._py_brandes_accumulate(
        u, v, e, w, inv, delta_got, ep_got, contrib_got
    )
    assert np.array_equal(contrib_got, contrib_ref)
    assert np.array_equal(delta_got, delta_ref)
    assert np.array_equal(ep_got, ep_ref)


# ---------------------------------------------------------------------------
# End-to-end: forced compiled tier == numpy tier (interpreted bodies)
# ---------------------------------------------------------------------------
ALGOS = [
    ("betweenness", (), {}),
    ("closeness", (), {}),
    ("msbfs", ([0, 5, 33],), {}),
    ("pla", (), {"multilevel": True}),
]


@pytest.mark.parametrize("name,operands,kwargs", ALGOS)
def test_forced_compiled_tier_end_to_end(fake_numba, name, operands, kwargs):
    g = karate_club()
    ref = repro.run(name, g, *operands, kernel_tier="numpy", **kwargs)
    got = repro.run(name, g, *operands, kernel_tier="compiled", **kwargs)
    # msbfs (and closeness on top of it) is one word-parallel numpy
    # path with no tiered kernel: the setting must be accepted and inert.
    if name in ("msbfs", "closeness"):
        assert got.kernel_tiers == {}
    else:
        assert got.kernel_tiers.get("compiled", 0) > 0
    assert got.trace.structure() == ref.trace.structure()
    for attr in ("distances", "labels", "vertex"):
        if hasattr(ref.value, attr):
            a = np.asarray(getattr(ref.value, attr))
            b = np.asarray(getattr(got.value, attr))
            assert np.array_equal(a, b), f"{name}.{attr} diverges"
    if isinstance(ref.value, np.ndarray):
        assert np.array_equal(ref.value, got.value)


def test_triangle_counts_forced_compiled(fake_numba):
    from repro.metrics.clustering import triangle_counts

    g = rmat(8, 8.0, rng=np.random.default_rng(6)).as_undirected()
    with dispatch.use_tier("numpy"):
        ref = triangle_counts(g)
    with dispatch.use_tier("compiled"):
        got = triangle_counts(g)
    assert np.array_equal(ref, got)


# ---------------------------------------------------------------------------
# Observability + configuration plumbing
# ---------------------------------------------------------------------------
def test_context_rejects_invalid_tier():
    with pytest.raises(ValueError, match="kernel_tier"):
        ParallelContext(1, kernel_tier="jit")


def test_context_counts_tier_dispatches(fresh_dispatch):
    ctx = ParallelContext(1, kernel_tier="numpy")
    try:
        assert ctx.tier_for(10) == "numpy"
        assert ctx.tier_for(10, override="numpy") == "numpy"
        assert ctx.tier_dispatches == {"numpy": 2}
        ctx.reset()
        assert ctx.tier_dispatches == {}
    finally:
        ctx.close()


def test_run_result_reports_tiers(fresh_dispatch):
    g = karate_club()
    res = repro.run("betweenness", g, kernel_tier="numpy")
    assert res.kernel_tiers == {"numpy": 1}
    assert res.to_dict()["kernel_tiers"] == {"numpy": 1}


def test_run_restores_explicit_ctx_tier(fresh_dispatch):
    g = karate_club()
    ctx = ParallelContext(1, kernel_tier="auto")
    try:
        repro.run("degree", g, ctx=ctx, kernel_tier="numpy")
        assert ctx.kernel_tier == "auto"
    finally:
        ctx.close()


def test_cli_accepts_kernel_tier():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["analyze", "g.txt", "--kernel-tier", "compiled"]
    )
    assert args.kernel_tier == "compiled"
    args = parser.parse_args(["check", "--kernel-tier", "numpy"])
    assert args.kernel_tier == "numpy"
    args = parser.parse_args(["profile", "--rmat-scale", "6"])
    assert args.kernel_tier is None


def test_differential_smoke_compiled_tier(fresh_dispatch):
    """`repro check --kernel-tier compiled` path: compiled kernels are
    fuzzed against the pure-Python oracles.  Without numba the tier
    falls back (one warning) and the oracles must still agree."""
    from repro.qa.differential import run_differential

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = run_differential(
            seed=0,
            n_graphs=6,
            backends=("serial",),
            representations=("csr",),
            checks=("betweenness", "closeness", "clustering",
                    "pla_multilevel"),
            n_workers=1,
            artifact_dir=None,
            kernel_tier="compiled",
        )
    assert report.ok, report.summary()
    assert report.n_runs > 0


# ---------------------------------------------------------------------------
# Warm-up
# ---------------------------------------------------------------------------
def test_warmup_without_numba_is_noop(fresh_dispatch, monkeypatch):
    monkeypatch.setattr(_compiled, "HAVE_NUMBA", False)
    assert dispatch.warmup(force=True) == 0


@pytest.mark.skipif(
    not dispatch.numba_available(), reason="numba not installed"
)
def test_warmup_compiles_once():
    """Second warm-up is a cache hit: no kernel grows new signatures."""
    assert dispatch.warmup(force=True) > 0
    before = dispatch.signature_counts()
    assert sum(before.values()) > 0
    dispatch.warmup(force=True)
    assert dispatch.signature_counts() == before
