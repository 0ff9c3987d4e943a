"""A masked graph is compacted in one place: ``EdgeSubsetView.live()``.

Every kernel that reads the whole graph runs on ``g.live()``; called on
a view with every third edge dead, each must equal the same kernel on a
graph built from the surviving edges, bit for bit.  The O(frontier)
traversals keep filtering the mask and are not listed here.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.centrality.closeness import closeness_centrality
from repro.centrality.degree import degree_centrality
from repro.generators import rmat
from repro.graph import from_edge_array
from repro.kernels.connected import connected_components
from repro.kernels.spanning import spanning_forest
from repro.kernels.sssp import dijkstra
from repro.metrics.assortativity import (
    average_neighbor_degree, degree_assortativity, neighbor_connectivity,
)
from repro.metrics.basic import (
    average_degree, degree_distribution, degree_histogram, degree_skewness,
    density,
)
from repro.metrics.clustering import (
    average_clustering, global_clustering_coefficient,
    local_clustering_coefficients, triangle_counts,
)
from repro.metrics.preprocess import is_bipartite, lethality_screen, preprocess
from repro.metrics.richclub import rich_club_coefficient
from repro.parallel.runtime import ParallelContext

SCALE = 10
SOURCES = list(range(0, 1 << SCALE, 64))

#: ``(name, fn)`` for every compacting function that takes a directed graph.
BOTH = [
    ("average_degree", average_degree),
    ("density", density),
    ("degree_distribution", degree_distribution),
    ("degree_histogram", degree_histogram),
    ("degree_skewness", degree_skewness),
    ("degree_centrality", degree_centrality),
    ("components_sv", connected_components),
    ("components_bfs", lambda g: connected_components(g, method="bfs")),
    ("is_bipartite", is_bipartite),
    ("preprocess", preprocess),
    ("dijkstra", lambda g: dijkstra(g, 1)),
    ("closeness", lambda g: closeness_centrality(g, sources=SOURCES)),
]
UNDIRECTED = [
    ("degree_assortativity", degree_assortativity),
    ("average_neighbor_degree", average_neighbor_degree),
    ("neighbor_connectivity", neighbor_connectivity),
    ("rich_club_coefficient", rich_club_coefficient),
    ("triangle_counts", triangle_counts),
    ("local_clustering", local_clustering_coefficients),
    ("average_clustering", average_clustering),
    ("global_clustering", global_clustering_coefficient),
    ("lethality_screen", lethality_screen),
    ("spanning_forest", spanning_forest),
]

#: The modules that compact and so never split a view themselves.
COMPACTING_MODULES = [
    "metrics/basic.py", "metrics/assortativity.py", "metrics/richclub.py",
    "metrics/clustering.py", "metrics/preprocess.py",
    "centrality/degree.py", "kernels/connected.py", "kernels/spanning.py",
]


def _masked(directed: bool, weighted: bool):
    """``(view, reference)``: R-MAT with every third edge dead, and the
    graph built from the surviving edges."""
    g = rmat(SCALE, 8, directed=directed, rng=np.random.default_rng(7))
    u, v = g.edge_endpoints()
    if weighted:
        w = np.random.default_rng(8).uniform(1.0, 5.0, g.n_edges)
        g = from_edge_array(g.n_vertices, u, v, weights=w, directed=directed)
        u, v = g.edge_endpoints()
    view = g.view()
    view.active[2::3] = False
    keep = view.active
    ref = from_edge_array(
        g.n_vertices, u[keep], v[keep],
        weights=g.edge_weights()[keep] if weighted else None,
        directed=directed,
    )
    return view, ref


def _same(a, b) -> bool:
    """Bit-for-bit equality through results of any shape."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and (a == b or (a != a and b != b))


CASES = {f"{'directed' if d else 'undirected'}-"
         f"{'weighted' if w else 'unweighted'}": (d, w)
         for d in (False, True) for w in (False, True)}


@pytest.fixture(scope="module")
def masked(request):
    return _masked(*CASES[request.param])


def pytest_generate_tests(metafunc):
    """Every case for ``masked``; with ``fn``, each compacting function
    on each case it accepts (no undirected-only metric on a directed
    case)."""
    if "masked" not in metafunc.fixturenames:
        return
    if "fn" not in metafunc.fixturenames:
        metafunc.parametrize("masked", list(CASES), indirect=True)
        return
    combos = [(case, name, fn) for case, (directed, _) in CASES.items()
              for name, fn in BOTH + ([] if directed else UNDIRECTED)]
    metafunc.parametrize("masked,fn", [(c, fn) for c, _, fn in combos],
                         ids=[f"{c}-{name}" for c, name, _ in combos],
                         indirect=["masked"])


def test_live_arrays_are_the_masked_base_arrays(masked):
    view, ref = masked
    g, keep = view.graph, view.active
    live = view.live()
    arc_keep = view.arc_active()
    offsets = np.zeros(g.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(g.arc_sources()[arc_keep], minlength=g.n_vertices),
              out=offsets[1:])
    assert _same(live.offsets, offsets)
    assert _same(live.targets, g.targets[arc_keep])
    if g.weights is None:
        assert live.weights is None
    else:
        assert _same(live.weights, g.weights[arc_keep])
    assert live.n_edges == view.n_active_edges == ref.n_edges
    u, v = g.edge_endpoints()
    assert _same(live.edge_endpoints(), (u[keep], v[keep]))
    assert _same(live.edge_weights(), g.edge_weights()[keep])
    # ... and the CSR a build from the surviving edges gives.
    assert _same(live.offsets, ref.offsets)
    assert _same(live.targets, ref.targets)
    assert _same(live.arc_edge_ids, ref.arc_edge_ids)


def test_compacting_function_on_view_equals_it_on_survivors(masked, fn):
    view, ref = masked
    assert _same(fn(view), fn(ref))


@pytest.mark.parametrize("directed", [False, True])
def test_preprocess_reads_the_live_graph(directed):
    """A 4-cycle with two opposite edges dead has two live components
    and mean degree 1, directed or not."""
    g = from_edge_array(4, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 0]),
                        directed=directed)
    view = g.view()
    u, v = g.edge_endpoints()
    for e in range(g.n_edges):
        if {int(u[e]), int(v[e])} in ({1, 2}, {0, 3}):
            view.deactivate(e)
    rep = preprocess(view)
    assert rep.n_edges == 2
    assert rep.n_components == 2
    assert rep.average_degree == 1.0


def test_components_charges_of_an_all_dead_view():
    """A view whose every arc is dead charges one region and one empty
    hooking phase, as pBD's and pLA's pinned cost digests read; an
    arcless graph charges nothing."""
    g = rmat(6, 4, rng=np.random.default_rng(1))
    view = g.view(np.zeros(g.n_edges, dtype=bool))
    ctx = ParallelContext(1)
    assert _same(connected_components(view, ctx=ctx),
                 np.arange(g.n_vertices, dtype=np.int64))
    assert (ctx.cost.regions, ctx.cost.n_phases) == (1.0, 1)
    empty = from_edge_array(5, np.array([], dtype=np.int64),
                            np.array([], dtype=np.int64))
    ctx = ParallelContext(1)
    connected_components(empty, ctx=ctx)
    assert (ctx.cost.regions, ctx.cost.n_phases) == (0.0, 0)


def _splits_views(path: Path) -> list[str]:
    """Lines of ``path`` that name ``unwrap`` or ``edge_active`` (as a
    name, an attribute, a parameter or a keyword)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        name = (getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "arg", None))
        if name in ("unwrap", "edge_active"):
            found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_compacting_kernels_never_split_a_view():
    """Kernels that read every arc compact with ``g.live()``; none of
    them unwraps a view or handles its mask by hand."""
    root = Path(repro.__file__).parent
    found = [hit for rel in COMPACTING_MODULES
             for hit in _splits_views(root / rel)]
    assert found == []
