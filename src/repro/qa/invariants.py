"""Structural and result-shape invariant validators.

``validate(obj)`` accepts any of the graph representations — CSR
:class:`~repro.graph.csr.Graph`, :class:`~repro.graph.dynamic.DynamicGraph`,
:class:`~repro.graph.hybrid.HybridAdjacency`, :class:`~repro.graph.treap.Treap`
— and returns a list of human-readable violation strings (empty when
the structure is sound).  ``assert_valid`` raises
:class:`InvariantViolation` instead, for use inside tests and the fuzz
driver.

Result-shape checkers validate algorithm *outputs* independently of any
oracle: a partition must cover every vertex, centrality scores must be
finite and non-negative, a spanning forest must be acyclic with exactly
``n − #components`` edges, a dendrogram's merges must always join two
distinct live clusters.  These catch whole classes of bugs (dropped
vertices, NaN poisoning, cyclic "trees") even on graphs where no oracle
value is available.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import SnapError
from repro.graph.csr import Graph

if TYPE_CHECKING:
    from repro.graph.dynamic import DynamicGraph
    from repro.graph.hybrid import HybridAdjacency
    from repro.graph.treap import Treap

__all__ = [
    "InvariantViolation",
    "validate",
    "assert_valid",
    "check_partition",
    "check_centrality",
    "check_distances",
    "check_forest",
    "check_dendrogram",
]


class InvariantViolation(SnapError):
    """A structural or result-shape invariant does not hold."""


# ---------------------------------------------------------------------------
# Structural validators, one per representation
# ---------------------------------------------------------------------------
def _validate_csr_graph(g: Graph) -> list[str]:
    bad: list[str] = []
    n, offsets, targets = g.n_vertices, g.offsets, g.targets
    if offsets.shape[0] != n + 1:
        return [f"offsets length {offsets.shape[0]} != n+1 ({n + 1})"]
    if offsets[0] != 0:
        bad.append(f"offsets[0] = {int(offsets[0])}, expected 0")
    if np.any(np.diff(offsets) < 0):
        bad.append("offsets not monotone non-decreasing")
    if int(offsets[-1]) != targets.shape[0]:
        bad.append(
            f"offsets[-1] ({int(offsets[-1])}) != len(targets) ({targets.shape[0]})"
        )
        return bad  # slicing below would be unreliable
    if targets.shape[0] and (targets.min() < 0 or targets.max() >= n):
        bad.append("target vertex id out of range")
        return bad
    for v in range(n):
        row = targets[offsets[v] : offsets[v + 1]]
        if row.shape[0] > 1 and np.any(np.diff(row) < 0):
            bad.append(f"adjacency of vertex {v} not sorted")
        if row.shape[0] > 1 and np.any(np.diff(row) == 0):
            bad.append(f"duplicate target in adjacency of vertex {v}")
        if np.any(row == v):
            bad.append(f"self-loop stored at vertex {v}")
    if g.weights is not None and g.weights.shape[0] != targets.shape[0]:
        bad.append("weights length != n_arcs")
    if not g.directed:
        if targets.shape[0] % 2:
            bad.append("undirected graph with odd arc count")
        # Arc-level symmetry: (u, v) stored iff (v, u) stored.
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        fwd = set(zip(src.tolist(), targets.tolist()))
        for u, v in fwd:
            if (v, u) not in fwd:
                bad.append(f"asymmetric arc ({u}, {v}) without reverse")
        # Edge-id agreement: every edge id on exactly two arcs, with
        # equal weights on both.
        eids = g.arc_edge_ids
        if eids.shape[0] != targets.shape[0]:
            bad.append("arc_edge_ids length != n_arcs")
        elif eids.shape[0]:
            counts = np.bincount(eids, minlength=g.n_edges)
            if counts.shape[0] != g.n_edges or np.any(counts != 2):
                bad.append("each undirected edge id must label exactly 2 arcs")
            if g.weights is not None:
                per_edge: dict[int, float] = {}
                for a in range(eids.shape[0]):
                    e = int(eids[a])
                    w = float(g.weights[a])
                    if e in per_edge and per_edge[e] != w:
                        bad.append(f"edge {e} arcs disagree on weight")
                    per_edge[e] = w
        if int(np.diff(offsets).sum()) != 2 * g.n_edges:
            bad.append("degree sum != 2 * n_edges")
    return bad


def _validate_dynamic(g: DynamicGraph) -> list[str]:
    bad: list[str] = []
    deg_sum = 0
    for v in range(g.n_vertices):
        adj = g.neighbors(v)
        deg_sum += adj.shape[0]
        if adj.shape[0] != g.degree(v):
            bad.append(f"vertex {v}: neighbors length != degree")
        if np.any(adj == v):
            bad.append(f"self-loop stored at vertex {v}")
        uniq = np.unique(adj)
        if uniq.shape[0] != adj.shape[0]:
            bad.append(f"duplicate neighbor at vertex {v}")
        if g.sorted_adjacency and adj.shape[0] > 1 and np.any(np.diff(adj) < 0):
            bad.append(f"vertex {v}: adjacency not sorted in sorted mode")
        for u in adj.tolist():
            if not 0 <= u < g.n_vertices:
                bad.append(f"vertex {v}: neighbor {u} out of range")
            elif not g.has_edge(int(u), v):
                bad.append(f"asymmetric edge ({v}, {u}) in dynamic graph")
    if deg_sum != 2 * g.n_edges:
        bad.append(f"degree sum {deg_sum} != 2 * n_edges ({2 * g.n_edges})")
    return bad


def _validate_hybrid(h: HybridAdjacency) -> list[str]:
    from repro.graph.hybrid import _ArrayAdj
    from repro.graph.treap import Treap

    bad: list[str] = []
    deg_sum = 0
    for v in range(h.n_vertices):
        slot = h._slots[v]
        adj = h.neighbors(v)
        deg_sum += adj.shape[0]
        if isinstance(slot, Treap):
            try:
                slot.check_invariants()
            except AssertionError as exc:
                bad.append(f"vertex {v}: treap invariant broken ({exc})")
            if len(slot) != h.degree(v):
                bad.append(f"vertex {v}: treap size != degree")
        else:
            assert isinstance(slot, _ArrayAdj)
            if slot.count != h.degree(v):
                bad.append(f"vertex {v}: array count != degree")
        if np.any(adj == v):
            bad.append(f"self-loop stored at vertex {v}")
        if np.unique(adj).shape[0] != adj.shape[0]:
            bad.append(f"duplicate neighbor at vertex {v}")
        for u in adj.tolist():
            if not 0 <= u < h.n_vertices:
                bad.append(f"vertex {v}: neighbor {u} out of range")
            elif not h.has_edge(int(u), v):
                bad.append(f"asymmetric edge ({v}, {u}) in hybrid adjacency")
    if deg_sum != 2 * h.n_edges:
        bad.append(f"degree sum {deg_sum} != 2 * n_edges ({2 * h.n_edges})")
    return bad


def _validate_treap(t: Treap) -> list[str]:
    try:
        t.check_invariants()
    except AssertionError as exc:
        return [f"treap invariant broken: {exc}"]
    keys = list(t)
    if keys != sorted(set(keys)):
        return ["treap iteration not strictly sorted"]
    if len(t) != len(keys):
        return [f"treap size {len(t)} != iterated key count {len(keys)}"]
    return []


def validate(obj) -> list[str]:
    """Structural violations of any graph representation (empty = sound)."""
    if isinstance(obj, Graph):
        return _validate_csr_graph(obj)
    # The paper's §3 containers load only when one is validated.
    from repro.graph.dynamic import DynamicGraph
    from repro.graph.hybrid import HybridAdjacency
    from repro.graph.treap import Treap

    if isinstance(obj, DynamicGraph):
        return _validate_dynamic(obj)
    if isinstance(obj, HybridAdjacency):
        return _validate_hybrid(obj)
    if isinstance(obj, Treap):
        return _validate_treap(obj)
    raise TypeError(f"no validator for {type(obj).__name__}")


def assert_valid(obj) -> None:
    """Raise :class:`InvariantViolation` listing every broken invariant."""
    bad = validate(obj)
    if bad:
        raise InvariantViolation(
            f"{type(obj).__name__}: " + "; ".join(bad)
        )


# ---------------------------------------------------------------------------
# Result-shape invariants
# ---------------------------------------------------------------------------
def check_partition(labels, n_vertices: int) -> list[str]:
    """A partition must assign every vertex exactly one finite label."""
    labels = np.asarray(labels)
    bad = []
    if labels.shape != (n_vertices,):
        return [f"labels shape {labels.shape} != ({n_vertices},)"]
    if labels.shape[0] and not np.issubdtype(labels.dtype, np.integer):
        bad.append(f"labels dtype {labels.dtype} is not integral")
    return bad


def check_centrality(scores, n_vertices: int, *, name: str = "centrality") -> list[str]:
    """Centrality scores must be finite and non-negative, one per vertex."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (n_vertices,):
        return [f"{name} shape {scores.shape} != ({n_vertices},)"]
    bad = []
    if scores.shape[0]:
        if not np.all(np.isfinite(scores)):
            bad.append(f"{name} contains non-finite values")
        elif np.any(scores < -1e-12):
            bad.append(f"{name} contains negative values (min {scores.min()})")
    return bad


def check_distances(dist, n_vertices: int, source: int) -> list[str]:
    """BFS hop distances: source at 0, unreachable at -1, others positive."""
    dist = np.asarray(dist)
    if dist.shape != (n_vertices,):
        return [f"distances shape {dist.shape} != ({n_vertices},)"]
    bad = []
    if int(dist[source]) != 0:
        bad.append(f"distance of source {source} is {int(dist[source])}, not 0")
    if np.any(dist < -1):
        bad.append("distance below -1")
    return bad


def check_forest(graph: Graph, edge_ids) -> list[str]:
    """A spanning forest: valid unique edge ids, acyclic, maximal."""
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    bad = []
    if edge_ids.shape[0] != np.unique(edge_ids).shape[0]:
        bad.append("duplicate edge ids in forest")
    if edge_ids.shape[0] and (
        edge_ids.min() < 0 or edge_ids.max() >= graph.n_edges
    ):
        return bad + ["forest edge id out of range"]
    u, v = graph.edge_endpoints()
    parent = np.arange(graph.n_vertices, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = int(parent[x])
        return x

    for e in edge_ids.tolist():
        ru, rv = find(int(u[e])), find(int(v[e]))
        if ru == rv:
            bad.append(f"forest edge {e} closes a cycle")
        else:
            parent[ru] = rv
    # Maximality: a spanning forest has n - #components edges.
    from repro.qa.oracles import RefGraph, connected_components as ref_cc

    ref = RefGraph(
        graph.n_vertices,
        list(zip(u.tolist(), v.tolist())),
        directed=False,
    )
    n_comp = len(set(ref_cc(ref)))
    expect = graph.n_vertices - n_comp
    if edge_ids.shape[0] != expect:
        bad.append(
            f"forest has {edge_ids.shape[0]} edges, expected {expect} "
            f"(n={graph.n_vertices}, components={n_comp})"
        )
    return bad


def check_dendrogram(merges: Sequence[tuple[int, int]], n_vertices: int) -> list[str]:
    """Agglomerative merge validity: each step joins two distinct live
    clusters; at most ``n − 1`` merges total."""
    bad = []
    if len(merges) > max(0, n_vertices - 1):
        bad.append(f"{len(merges)} merges exceed n-1 ({n_vertices - 1})")
    parent = list(range(n_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step, (a, b) in enumerate(merges):
        if not (0 <= a < n_vertices and 0 <= b < n_vertices):
            bad.append(f"merge {step}: cluster id out of range ({a}, {b})")
            continue
        ra, rb = find(a), find(b)
        if ra == rb:
            bad.append(f"merge {step}: ({a}, {b}) already in one cluster")
        else:
            parent[ra] = rb
    return bad
