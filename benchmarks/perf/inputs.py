"""Seeded input generation for the bench ledger (runner side, untimed).

The program under test only ever sees the files and id lists written
here.  Same seed => byte-identical files; different seed => different
files.

Why the seed relabels instead of re-drawing the graph: on this box a
fresh R-MAT draw per seed moves pLA by +-15 % and k-way by +-17 % *of
their own work* (different sweep / coarsening trajectories), which would
swamp an 8 % regression bound before any machine noise is added.
Relabelling one fixed R-MAT topology keeps the structural difficulty
equal across seeds (measured: k-way +-4 %, pLA +-3 % with rare +10 %
outliers, traversals < 2 %) while every seed still yields a different
file, different vertex ids, a different edge order and a different
request / event order; the sources and the hot set are the same
topology vertices under each seed's ids (see ``pick_sources``).
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

import numpy as np

from repro import generators
from repro.kernels import connected_components, msbfs

#: Fixed R-MAT draw per scale (the paper fixes its instances too).
TOPOLOGY_SEED = 20080414
EDGE_FACTOR = 8
SOURCE_CANDIDATES = 256


@lru_cache(maxsize=None)
def topology(scale: int):
    """The scale's one R-MAT graph, before any seed relabels it."""
    return generators.rmat(
        scale, EDGE_FACTOR, rng=np.random.default_rng([TOPOLOGY_SEED, scale])
    ).as_undirected()


def vertex_map(scale: int, seed: int) -> np.ndarray:
    """Topology vertex id -> the id ``seed`` gives it.

    Vertex ``n - 1`` is guaranteed an edge so that readers which infer
    the vertex count from the largest id see all ``2**scale`` vertices.
    """
    base = topology(scale)
    n = base.n_vertices
    perm = np.random.default_rng([int(seed), scale]).permutation(n)
    u, v = base.edge_endpoints()
    top = int(max(perm[u].max(), perm[v].max()))
    if top != n - 1:  # hand the largest id to a non-isolated vertex
        perm = np.where(perm == top, n - 1, perm)
    return perm


def rmat_edges(scale: int, seed: int) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n, u, v)``: the scale's fixed topology, relabelled, re-oriented
    and re-ordered by ``seed``."""
    base = topology(scale)
    labels = vertex_map(scale, seed)
    u, v = base.edge_endpoints()
    u, v = labels[u], labels[v]
    rng = np.random.default_rng([int(seed), scale, 1])
    flip = rng.random(u.shape[0]) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    order = rng.permutation(u.shape[0])
    return base.n_vertices, u[order].astype(np.int64), v[order].astype(np.int64)


def write_edgelist(path: Path, u: np.ndarray, v: np.ndarray) -> None:
    """Plain ``u v`` lines — the format ``graph.io.read_auto`` parses."""
    lines = [f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())]
    path.write_text("\n".join(lines) + "\n")


def write_npz(path: Path, graph) -> None:
    """The CSR snapshot ``graph.io.load_npz`` reads (stored, not
    deflated: compressing a scale-14 graph costs more than a round)."""
    np.savez(
        path,
        offsets=graph.offsets,
        targets=graph.targets,
        directed=np.asarray([graph.directed]),
        n_edges=np.asarray([graph.n_edges]),
        arc_edge_ids=graph.arc_edge_ids,
    )


def giant_component(graph) -> np.ndarray:
    """Vertex ids of the largest connected component, ascending."""
    labels = connected_components(graph)
    ids, counts = np.unique(labels, return_counts=True)
    return np.flatnonzero(labels == ids[np.argmax(counts)])


@lru_cache(maxsize=None)
def typical_sources(scale: int) -> np.ndarray:
    """Topology ids of giant-component vertices whose BFS trees all have
    the depth most common among ``SOURCE_CANDIDATES`` fixed candidates.

    Sampling all vertices instead would leave a binomial number of
    isolated sources (about 30 % of an R-MAT's vertices) whose
    traversals are free, i.e. a +-8 % work difference between seeds.
    Depth is fixed for the same reason: one deeper source is one more
    superstep for every sharded traversal of that seed (+6-10 %
    measured at scale 15), and it is fixed per topology, not voted per
    seed, so that the pool is the same for every seed.
    """
    base = topology(scale)
    rng = np.random.default_rng([TOPOLOGY_SEED, scale, 1])
    giant = giant_component(base)
    pool = rng.choice(
        giant, size=min(giant.shape[0], SOURCE_CANDIDATES), replace=False
    )
    depth = np.concatenate([  # 64 lanes a call: wider batches thrash
        msbfs(base, pool[i:i + 64].tolist()).distances.max(axis=1)
        for i in range(0, pool.shape[0], 64)
    ])
    values, counts = np.unique(depth, return_counts=True)
    return pool[depth == values[np.argmax(counts)]]


def pick_sources(scale: int, k: int, seed: int) -> list[int]:
    """``k`` distinct, equally deep sources (see ``typical_sources``) in
    the ids ``rmat_edges(scale, seed)`` uses, ascending.

    Every seed gets the same ``k`` topology vertices under its own ids.
    A per-seed draw from the pool put some source sets on the other side
    of the traversals' top-down/bottom-up switch at the widest level
    (it compares label-invariant arc sums): at scale 14 that is a
    19 MB arc-expansion transient in ``sharded_msbfs`` for some seeds
    (seed 20: ``peak_rss_mb`` 102 instead of 90 MB).
    """
    rng = np.random.default_rng([TOPOLOGY_SEED, scale, k, 7])
    picked = rng.choice(typical_sources(scale), size=k, replace=False)
    return sorted(int(s) for s in vertex_map(scale, seed)[picked])
