"""Shared fixtures: small canonical graphs and random-graph helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import from_edge_list


@pytest.fixture
def triangle_plus_tail():
    """Triangle 0-1-2 with a tail 2-3."""
    return from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3)])


@pytest.fixture
def two_triangles_bridge():
    """Two triangles joined by a single bridge edge (2, 3)."""
    return from_edge_list(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )


@pytest.fixture
def disconnected_graph():
    """A path 0-1-2, an edge 3-4, and isolated vertex 5."""
    return from_edge_list([(0, 1), (1, 2), (3, 4)], n_vertices=6)


@pytest.fixture
def weighted_graph():
    """Small weighted graph with distinct weights."""
    return from_edge_list(
        [
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 3, 3.0),
            (3, 0, 4.0),
            (0, 2, 5.0),
            (1, 3, 0.5),
        ]
    )


def random_gnm(n: int, m: int, seed: int, *, directed: bool = False):
    """Random simple G(n, m) graph via rejection-free sampling."""
    rng = np.random.default_rng(seed)
    max_m = n * (n - 1) // (1 if directed else 2)
    m = min(m, max_m)
    seen = set()
    src, dst = [], []
    while len(src) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        src.append(key[0] if not directed else u)
        dst.append(key[1] if not directed else v)
    from repro.graph import builder

    return builder.from_edge_array(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        directed=directed,
    )


def plant_stream_log(path, batches, *, n_vertices, **config):
    """A ``repro stream --checkpoint-dir`` log at ``path`` holding
    ``batches``: kind ``stream-checkpoint``, the engine config as its
    params, one ``(kind, u, v, t, weight)`` list per batch."""
    from repro.durable import RecordLog
    from repro.dynamic import StreamEngine

    log = RecordLog(path, kind="stream-checkpoint",
                    params=StreamEngine(n_vertices, **config)._config())
    for batch in batches:
        log.append([(e.kind, e.u, e.v, e.t, e.weight) for e in batch])
    return log


def stream_cli(monkeypatch, argv, **run_kwargs):
    """Run ``repro stream`` in process and return its ``(engine, rows)``:
    the engine after the last batch and the ``-o`` document's batch rows.
    ``run_kwargs`` (e.g. ``chaos``, ``fault_policy``) go to ``obs.run``,
    over the CLI's own."""
    from repro import cli
    from repro.obs import run

    runs = []

    def spy(*args, **kwargs):
        runs.append(run(*args, **{**kwargs, **run_kwargs}))
        return runs[-1]

    monkeypatch.setattr(cli, "obs_run", spy)
    assert cli.main(["stream", *map(str, argv)]) == 0
    return runs[-1].value
