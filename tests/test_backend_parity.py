"""Backend parity: every registered algorithm, identical on all backends.

Each entry of :data:`SPEC` runs a registered algorithm on the karate
club graph through ``repro.obs.run`` under serial, thread and process
execution, asserting bit-identical (1e-9 for floats) result payloads,
identical span-tree structure and an identical modeled cost profile
(kernels record their phases; dispatch charges nothing, so the Figure
2/3 inputs cannot depend on the backend).  ``test_spec_covers_registry`` fails
the moment a new ``@algorithm`` is registered without a parity entry —
closing the gap where new algorithms silently skip parity coverage.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.datasets.karate import karate_club
from repro.obs.api import ALGORITHMS

BACKENDS = ("serial", "thread", "process")

#: algorithm name -> (positional operands, keyword arguments).
#: Randomized algorithms get seed=0 so all backends draw the same rng.
#: A ``name@variant`` key re-runs the same registered algorithm with a
#: different argument profile (the ``@variant`` suffix is stripped).
SPEC: dict[str, tuple[tuple, dict]] = {
    "approximate_vertex_betweenness": ((0,), {"seed": 0}),
    "articulation_points": ((), {}),
    "betweenness": ((), {}),
    "bfs": ((0,), {}),
    "biconnected_components": ((), {}),
    "boruvka_msf": ((), {}),
    "brandes": ((), {}),
    "bridges": ((), {}),
    "closeness": ((), {}),
    "cnm": ((), {}),
    "connected_components": ((), {}),
    "degree": ((), {}),
    "delta_stepping": ((0,), {}),
    "dijkstra": ((0,), {}),
    "edge_betweenness": ((), {}),
    "girvan_newman": ((), {"patience": 5}),
    "kruskal_msf": ((), {}),
    "local_resweep": ((), {"touched": [0, 33]}),
    "minimum_spanning_forest": ((), {}),
    "msbfs": (([0, 5, 33],), {}),
    "multilevel_bisection": ((), {"seed": 0}),
    "multilevel_kway": ((4,), {"seed": 0}),
    "multilevel_recursive_bisection": ((4,), {"seed": 0}),
    "pbd": ((), {"seed": 0, "patience": 5}),
    "pla": ((), {"seed": 0}),
    "pla@multilevel": ((), {"multilevel": True, "seed": 0}),
    "pma": ((), {}),
    "prim_mst": ((0,), {}),
    "sampled_betweenness": ((), {"seed": 0}),
    "spectral_bisection": ((), {"seed": 0}),
    "spectral_kway": ((4,), {"seed": 0}),
    "spectral_modularity": ((), {"seed": 0}),
    "st_connectivity": ((0, 33), {}),
    # "community" is included so modularity is a float (projectable);
    # per-batch checksums make cross-backend drift loud.
    "stream_replay": ((), {
        "policy": "bfs", "batch_size": 8, "k": 5,
        "analytics": ["components", "stats", "degree", "community"],
    }),
}


def test_spec_covers_registry():
    """Every registered algorithm must have a parity table entry."""
    covered = {name.partition("@")[0] for name in SPEC}
    missing = sorted(set(ALGORITHMS) - covered)
    stale = sorted(covered - set(ALGORITHMS))
    assert not missing, (
        f"algorithms registered without backend-parity coverage: {missing}; "
        f"add them to SPEC in {__file__}"
    )
    assert not stale, f"SPEC entries for unregistered algorithms: {stale}"


def _project(value) -> dict[str, np.ndarray]:
    """Flatten any result payload to named arrays for comparison."""
    if isinstance(value, np.ndarray):
        return {"value": value}
    if isinstance(value, (bool, np.bool_, int, np.integer, float, np.floating)):
        return {"value": np.asarray([float(value)])}
    if isinstance(value, tuple) and all(
        isinstance(x, np.ndarray) for x in value
    ):
        return {f"item{i}": x for i, x in enumerate(value)}
    out: dict[str, np.ndarray] = {}
    for attr in ("distances", "parents", "labels", "edge_component",
                 "articulation_mask", "bridge_mask", "vertex", "edge",
                 "batch_checksums", "community_labels"):
        if hasattr(value, attr):
            out[attr] = np.asarray(getattr(value, attr))
    for attr in ("modularity", "n_levels", "n_components", "estimate",
                 "n_samples", "n_sources", "stopped_early",
                 "n_batches", "n_triangles", "n_wedges",
                 "global_clustering"):
        if hasattr(value, attr):
            out[attr] = np.asarray([float(getattr(value, attr))])
    assert out, f"no projection rule for payload type {type(value).__name__}"
    return out


def _assert_same(name: str, backend: str, got: dict, ref: dict) -> None:
    assert got.keys() == ref.keys()
    for key in ref:
        a, b = got[key], ref[key]
        assert a.shape == b.shape, (
            f"{name} [{backend}]: {key} shape {a.shape} != {b.shape}"
        )
        if np.issubdtype(a.dtype, np.floating):
            assert np.allclose(a, b, rtol=1e-9, atol=1e-9, equal_nan=True), (
                f"{name} [{backend}]: {key} deviates from serial result"
            )
        else:
            assert np.array_equal(a, b), (
                f"{name} [{backend}]: {key} differs from serial result"
            )


@pytest.fixture(scope="module")
def karate():
    return karate_club()


@pytest.mark.parametrize("name", sorted(SPEC))
def test_backend_parity(name, karate):
    operands, kwargs = SPEC[name]
    algo = name.partition("@")[0]
    results = {
        b: repro.obs.run(algo, karate, *operands, backend=b, n_workers=2, **kwargs)
        for b in BACKENDS
    }
    ref = _project(results["serial"].value)
    ref_structure = results["serial"].trace.structure()
    ref_cost = results["serial"].cost_model.summary()
    for backend in BACKENDS[1:]:
        _assert_same(name, backend, _project(results[backend].value), ref)
        assert results[backend].trace.structure() == ref_structure, (
            f"{name} [{backend}]: span-tree structure diverges from serial"
        )
        assert results[backend].cost_model.summary() == ref_cost, (
            f"{name} [{backend}]: modeled cost profile diverges from serial"
        )


def _assert_identical(name: str, label: str, got: dict, ref: dict) -> None:
    """Bit-exact across kernel tiers — no float tolerance at all."""
    assert got.keys() == ref.keys()
    for key in ref:
        a, b = got[key], ref[key]
        assert a.shape == b.shape, (
            f"{name} [{label}]: {key} shape {a.shape} != {b.shape}"
        )
        assert np.array_equal(a, b, equal_nan=True), (
            f"{name} [{label}]: {key} not bit-identical to the numpy tier"
        )


@pytest.mark.parametrize("name", sorted(SPEC))
def test_api_facade_parity(name, karate):
    """The ``repro.api`` served path returns what the engine returns.

    Every registry algorithm is dispatched once through a Session's
    coalescing scheduler (handle path) and once directly; the payloads
    must be bit-identical.  ``bfs`` is the documented exception: the
    served form is the distances row of a one-lane msbfs (no parent
    tree), so only its distances are compared.
    """
    import repro.api as api

    operands, kwargs = SPEC[name]
    algo = name.partition("@")[0]
    direct = repro.obs.run(
        algo, karate, *operands, backend="serial", trace=False, **kwargs
    )
    with api.Session(max_batch_delay=0.001) as session:
        handle = session.add("karate", karate)
        served = session.run(algo, handle, *operands, **kwargs)
    if algo == "bfs":
        assert np.array_equal(served.value, direct.value.distances)
        return
    _assert_identical(
        name, "api-facade", _project(served.value), _project(direct.value)
    )
