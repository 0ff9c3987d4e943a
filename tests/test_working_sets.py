"""Kernels whose transients used to grow with m hold a fixed working set.

``tracemalloc`` traces NumPy's buffers, so a peak taken around one warm
call is deterministic (RSS is not: it carries the allocator's kept heap
and whatever the process did before).  Each guard sits beside the
exactness check of the blocking it measures (DESIGN §1.2).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro
from repro.centrality import brandes
from repro.datasets.karate import karate_club
from repro.metrics import clustering, triangle_counts
from repro.qa.oracles import triangle_counts_arcloop


def _rmat(scale: int):
    return repro.generators.rmat(
        scale, 8.0, rng=np.random.default_rng(1)
    ).as_undirected()


def peak_mb(fn) -> float:
    """Traced peak above the baseline of one warm call, in MB."""
    fn()  # warm: lazily built graph caches are not the kernel's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def rmat13():
    return _rmat(13)


# before blocking: 15.9 MB on R-MAT 11 and 33.5 MB on R-MAT 12
TRIANGLE_PEAK_MB = 10.0


def test_triangle_counts_working_set_is_fixed():
    g11, g12 = _rmat(11), _rmat(12)
    p11 = peak_mb(lambda: triangle_counts(g11))
    p12 = peak_mb(lambda: triangle_counts(g12))
    assert p12 < TRIANGLE_PEAK_MB
    assert p12 < 1.3 * p11  # m doubled; the working set did not


@pytest.mark.parametrize("block", [1, 1 << 40], ids=["one_query", "one_block"])
def test_triangle_counts_exact_at_any_block(block, monkeypatch):
    g, karate = _rmat(10), karate_club()
    view = karate.view()
    for e in range(0, karate.n_edges, 3):
        view.deactivate(e)
    want = [triangle_counts(g), triangle_counts(view)]
    monkeypatch.setattr(clustering, "QUERY_BLOCK", block)
    for got, ref, oracle in zip(
        (triangle_counts(g), triangle_counts(view)), want, (g, view)
    ):
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(got, triangle_counts_arcloop(oracle))


# before the arc budget fell to 1 << 18 (K = 8): 23.4 MB
BRANDES_PEAK_MB = 12.0


def test_default_k_brandes_working_set(rmat13):
    sources = list(range(32))
    assert peak_mb(lambda: brandes(rmat13, sources=sources)) < BRANDES_PEAK_MB
    got = brandes(rmat13, sources=sources)
    ref = brandes(rmat13, sources=sources, batch_size=8)
    np.testing.assert_allclose(got.vertex, ref.vertex, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.edge, ref.edge, rtol=1e-12, atol=0)
