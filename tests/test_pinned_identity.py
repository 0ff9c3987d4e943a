"""Pinned bit-identity of the clustering / partitioning results.

The digests below were recorded at the commit *before* the pLA grouping
sort, the modularity accumulation and the partitioner inner loops were
rewritten (ISSUE 16).  Those rewrites promise the same permutations,
the same float operations in the same order and the same tie-breaks, so
every label / part array — and pLA's modularity, bit for bit — must
still hash to the recorded value.  A digest that moves means a result
changed, not that the pin is stale: regenerate only for a change that
is *meant* to alter results (``python tests/test_pinned_identity.py``
prints the table).

``PINNED_COSTS`` does the same for the modeled cost profiles the
Figure 2/3 harnesses read (serial karate runs, recorded before Brandes
lost its per-backend dispatch paths): a moved digest means a figure
curve moved.  Its multilevel pLA and ``local_resweep`` entries, and
``PINNED_SPANS`` (the traced span ``structure()`` of the pLA drivers),
were recorded before the local-moving sweeps of every pLA driver went
through one sweep loop.  The ``msbfs`` and ``closeness`` cost entries,
``PINNED_LEVELS`` (every msbfs ``level`` span with its attributes) and
``PINNED_SUPERSTEPS`` (the phases and payload arrays of sharded msbfs)
were recorded before in-core and sharded msbfs went through one level
loop.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.community import modularity, pla
from repro.datasets.karate import karate_club
from repro.generators import rmat
from repro.graph import contract, from_edge_array, from_edge_list
from repro.partitioning import multilevel_kway, multilevel_recursive_bisection
from repro.sharded import build_shard_set, sharded_pla


def _rmat10():
    return rmat(10, 8.0, rng=np.random.default_rng(7))


def _float_weighted():
    """Non-integer weights: every accumulation order is observable."""
    rng = np.random.default_rng(23)
    base = rmat(8, 6.0, rng=rng)
    u, v = base.edge_endpoints()
    w = rng.random(u.shape[0]) * 3.0 + 0.05
    return from_edge_array(base.n_vertices, u, v, weights=w, dedupe=False)


def _ring_of_cliques(n_cliques: int = 12, size: int = 6):
    edges = []
    for c in range(n_cliques):
        base = c * size
        edges += [
            (base + i, base + j) for i in range(size) for j in range(i + 1, size)
        ]
        edges.append((base + size - 1, ((c + 1) % n_cliques) * size))
    return from_edge_list(edges)


def _contracted_with_loops():
    """Coarse graph from ``contract``: float weights and self-loops."""
    g = _float_weighted()
    coarse, _ = contract(g, np.arange(g.n_vertices, dtype=np.int64) // 3)
    assert (coarse.arc_sources() == coarse.targets).any()
    return coarse


def _disconnected():
    """Two R-MAT blobs, a separate triangle and four isolated vertices."""
    a = rmat(7, 5.0, rng=np.random.default_rng(3))
    b = rmat(6, 4.0, rng=np.random.default_rng(4))
    ua, va = a.edge_endpoints()
    ub, vb = b.edge_endpoints()
    off = a.n_vertices
    t = off + b.n_vertices
    u = np.concatenate([ua, ub + off, [t, t + 1, t + 2]])
    v = np.concatenate([va, vb + off, [t + 1, t + 2, t]])
    return from_edge_array(t + 7, u, v)


CORPUS = {
    "rmat10": _rmat10,
    "float_weighted": _float_weighted,
    "karate": karate_club,
    "ring_of_cliques": _ring_of_cliques,
    "contracted_loops": _contracted_with_loops,
    "disconnected": _disconnected,
}


def _sha1(*chunks: bytes) -> str:
    h = hashlib.sha1()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _clustering_digest(res) -> str:
    extras = {k: res.extras[k] for k in ("n_levels", "n_sweeps") if k in res.extras}
    return _sha1(
        np.ascontiguousarray(res.labels, dtype=np.int64).tobytes(),
        float(res.modularity).hex().encode(),
        repr(sorted(extras.items())).encode(),
    )


def _parts_digest(parts) -> str:
    return _sha1(np.ascontiguousarray(parts, dtype=np.int64).tobytes())


def compute_digests(name: str, tmp_dir) -> dict[str, str]:
    g = CORPUS[name]()
    k = min(8, g.n_vertices)
    ss = build_shard_set(g, tmp_dir / name, k=3, method="block")
    out = {
        "pla_ml": _clustering_digest(pla(g, multilevel=True)),
        "kway8": _parts_digest(multilevel_kway(g, k)),
        "rb8": _parts_digest(multilevel_recursive_bisection(g, k)),
        "sharded_pla": _clustering_digest(sharded_pla(ss)),
    }
    if name != "contracted_loops":
        # the per-vertex aggregation passes of non-multilevel pLA do not
        # accept self-loops (KeyError in its cluster rows, before and
        # after this change); its refine=True sweeps are what is pinned
        out["pla"] = _clustering_digest(pla(g))
    return out


PINNED: dict[str, dict[str, str]] = {
    "contracted_loops": {
        "kway8": "63ff37f5a16bbd44e177524fb5dfee0fdf319158",
        "pla_ml": "6efd13b9708f217b60054194822bd44dad78e5dd",
        "rb8": "cb5602dcae48de1cdec4f8f2f8671c12bfb1ef60",
        "sharded_pla": "6efd13b9708f217b60054194822bd44dad78e5dd",
    },
    "disconnected": {
        "kway8": "2a9a78eb652d42a140f29082be74199e3a8b9714",
        "pla": "b11a806f68ec19f4479669793065497da6480085",
        "pla_ml": "dc34fbd5dd34ea0f84033c664d6c71ad8ac703cd",
        "rb8": "dbf52f537101b968fe938778a45e6f4a8e029808",
        "sharded_pla": "dc34fbd5dd34ea0f84033c664d6c71ad8ac703cd",
    },
    "float_weighted": {
        "kway8": "d6faadc62f794b26df5745703884227c872984e8",
        "pla": "89987a2df93c34219eb878ada93dc7e96d3e003a",
        "pla_ml": "94f6f9e27eb2807739ffbd247059b5c0682b3e0c",
        "rb8": "3d9813ab0217314df5ae68e30c8aa3bb65fb716c",
        "sharded_pla": "94f6f9e27eb2807739ffbd247059b5c0682b3e0c",
    },
    "karate": {
        "kway8": "74bc89673a7d3dbcd9a3604bd9d53855993e9328",
        "pla": "d66f86079ced26162c886dc662afab3abb3e181a",
        "pla_ml": "eb69922569b5d14af77d5ad49279062d80ddaea1",
        "rb8": "74bc89673a7d3dbcd9a3604bd9d53855993e9328",
        "sharded_pla": "eb69922569b5d14af77d5ad49279062d80ddaea1",
    },
    "ring_of_cliques": {
        "kway8": "5a5b60fcf97d8bde657d06f2cabb0368e7b0d3e0",
        "pla": "f4bea37140e5d1e48e06999c34ef50e4428adfbb",
        "pla_ml": "335068eb14775da022c4be34807432474046c72b",
        "rb8": "5a5b60fcf97d8bde657d06f2cabb0368e7b0d3e0",
        "sharded_pla": "335068eb14775da022c4be34807432474046c72b",
    },
    "rmat10": {
        "kway8": "71b645e04c62eb730b7ac22fe2d78dff3ddae69b",
        "pla": "86941e21c34dba679304ef4a8b1a5a01cd4c6d94",
        "pla_ml": "42ad33913f9e7789ac3188c147d5026d6ed84d33",
        "rb8": "1f630f6979694ea6fe5b34566183796c9639a326",
        "sharded_pla": "42ad33913f9e7789ac3188c147d5026d6ed84d33",
    },
}


def _lane_sources(n: int, k: int) -> list:
    """``k`` msbfs sources over ``n`` vertices, duplicates included."""
    return np.random.default_rng(k).integers(0, n, size=k).tolist()


def _warm_resweep(n: int) -> dict:
    """``local_resweep`` from a warm start (blocks of five vertices)
    repaired around three touched vertices."""
    return {"labels": np.arange(n) // 5, "touched": [0, 3, n - 1]}


#: The Figure 2/3 inputs: pin name -> (algorithm, keyword arguments) of
#: a serial, 32-worker run on karate whose ``cost_model.summary()`` is
#: pinned, with degree-aware chunking on and (``@oblivious``) off.
COST_RUNS: dict[str, tuple[str, dict]] = {
    "betweenness": ("betweenness", {}),
    "closeness": ("closeness", {}),
    "girvan_newman": ("girvan_newman", {"patience": 5}),
    "local_resweep": ("local_resweep", _warm_resweep(34)),
    "msbfs": ("msbfs", {"sources": _lane_sources(34, 70)}),
    "pbd": ("pbd", {"seed": 0, "patience": 5}),
    "pla": ("pla", {"seed": 0}),
    "pla_ml": ("pla", {"multilevel": True}),
    "pma": ("pma", {}),
}


def _cost_models():
    """``(pin name, cost model)`` of every ``COST_RUNS`` run."""
    import repro
    from repro.parallel import ParallelContext

    g = karate_club()
    for name, (algo, kwargs) in COST_RUNS.items():
        for key, aware in ((name, True), (f"{name}@oblivious", False)):
            ctx = ParallelContext(32, degree_aware=aware)
            repro.obs.run(algo, g, ctx=ctx, trace=False, **kwargs)
            yield key, ctx.cost


def cost_digests() -> dict[str, str]:
    return {
        key: _sha1(repr([
            (k, float(v).hex()) for k, v in sorted(cost.summary().items())
        ]).encode())
        for key, cost in _cost_models()
    }


def modeled_curves() -> dict[str, tuple[float, ...]]:
    from repro.parallel.runtime import DEFAULT_THREAD_COUNTS

    return {
        key: tuple(cost.speedup(p) for p in DEFAULT_THREAD_COUNTS)
        for key, cost in _cost_models()
    }


PINNED_COSTS: dict[str, str] = {
    "betweenness": "a6d3e2fe395cdf3023cfcadb18cbeca25efe8731",
    "betweenness@oblivious": "13e16c62b934b4297ee7483b3492ed44adb53598",
    "closeness": "7354304f3784bd2a501baa3f15f6218d91c848e4",
    "closeness@oblivious": "7354304f3784bd2a501baa3f15f6218d91c848e4",
    "girvan_newman": "91fb49f164da8f4d4ff3d1fe19b9073aae027350",
    "girvan_newman@oblivious": "23ff32745b65956b3449595dc8aa2b0a2f61a230",
    "local_resweep": "e56fbcc76b797bf37e625e934790724fcfde18a6",
    "local_resweep@oblivious": "e56fbcc76b797bf37e625e934790724fcfde18a6",
    "msbfs": "494307444c9a8056f084ec2db8f1c43efc680857",
    "msbfs@oblivious": "e3617c91e1c13c567df12ea3293553dd23582425",
    "pbd": "6e5beb8a286f53f20581b05fa7741f2f4098fc7c",
    "pbd@oblivious": "fea23d8d3fcc91ff6abc1feb98ef7a2c9b80083a",
    "pla": "f93148315842d29a1f5fa619749b47b99433e972",
    "pla@oblivious": "f93148315842d29a1f5fa619749b47b99433e972",
    "pla_ml": "3eb9405bb44df9b647bca473412bc6991a0d2b85",
    "pla_ml@oblivious": "3eb9405bb44df9b647bca473412bc6991a0d2b85",
    "pma": "a571d75335eb33e0a32a77679ddd0dceb2e7bb49",
    "pma@oblivious": "a571d75335eb33e0a32a77679ddd0dceb2e7bb49",
}


def test_cost_summaries_match_pinned_digests():
    assert cost_digests() == PINNED_COSTS


#: ``speedup(p)`` of each ``COST_RUNS`` profile at every p in
#: ``DEFAULT_THREAD_COUNTS`` — the Figure 2/3 curves — recorded while the
#: model still kept one cell per distinct phase; the closed form over
#: running sums may differ from them only by float rounding.
PINNED_CURVES: dict[str, tuple[float, ...]] = {
    "betweenness": (
        1.0, 1.5516627078384797, 2.308303886925795,
        2.884105960264901, 3.0531779347969703, 3.099644128113879,
        3.0844126299330257, 3.033081834010447,
    ),
    "betweenness@oblivious": (
        1.0, 1.4851568241309565, 2.098600938981865,
        2.5174191982342298, 2.6285570186927654, 2.654424839995655,
        2.634871941424481, 2.593272515064237,
    ),
    "closeness": (
        1.0, 0.9629629629629629, 0.9732110091743119,
        0.9766157245442828, 0.9768496846277279, 0.9765258215962441,
        0.9755919457906245, 0.9746864519685763,
    ),
    "closeness@oblivious": (
        1.0, 0.9629629629629629, 0.9732110091743119,
        0.9766157245442828, 0.9768496846277279, 0.9765258215962441,
        0.9755919457906245, 0.9746864519685763,
    ),
    "girvan_newman": (
        1.0, 0.9459592963234967, 1.1031537881270048,
        1.1360505089898123, 1.11583859454451, 1.0914808257229676,
        1.0494698923946812, 1.017059016613982,
    ),
    "girvan_newman@oblivious": (
        1.0, 0.9014483702682332, 1.015446127053158,
        1.0292418530992795, 1.0081832458610562, 0.9861372470229043,
        0.9497505408160695, 0.9222024383957101,
    ),
    "local_resweep": (
        1.0, 0.34928955718030075, 0.35853865760407816,
        0.35447291054178914, 0.3488651544942472, 0.34411524870888827,
        0.33681476146808853, 0.33141361256544505,
    ),
    "local_resweep@oblivious": (
        1.0, 0.34928955718030075, 0.35853865760407816,
        0.35447291054178914, 0.3488651544942472, 0.34411524870888827,
        0.33681476146808853, 0.33141361256544505,
    ),
    "msbfs": (
        1.0, 0.8203506754814602, 0.8777487313547594,
        0.8449411590555843, 0.8060745749056162, 0.7753591197745101,
        0.7312888448506557, 0.7008087908040332,
    ),
    "msbfs@oblivious": (
        1.0, 0.7463145163926388, 0.7571923657286882,
        0.7167758898088922, 0.683863984812008, 0.6594293677411901,
        0.6253028673354015, 0.6019678246984904,
    ),
    "pbd": (
        1.0, 0.9869454377470187, 1.2030407624847492,
        1.3098315707011359, 1.328801934288594, 1.3283707113187506,
        1.3141624672070638, 1.297514329054416,
    ),
    "pbd@oblivious": (
        1.0, 0.977687769019485, 1.1825666289559207,
        1.2816458052732094, 1.2984534926460989, 1.297368531334168,
        1.2831538297029175, 1.266956404437537,
    ),
    "pla": (
        1.0, 0.4648810208069893, 0.46153846153846156,
        0.4353536440951663, 0.41630502605805014, 0.40246815286624205,
        0.3833042922952059, 0.3702279593518264,
    ),
    "pla@oblivious": (
        1.0, 0.4648810208069893, 0.46153846153846156,
        0.4353536440951663, 0.41630502605805014, 0.40246815286624205,
        0.3833042922952059, 0.3702279593518264,
    ),
    "pla_ml": (
        1.0, 0.3330446330619551, 0.33759620731029233,
        0.33111841444337603, 0.3248088618618062, 0.31977159172019987,
        0.3122752176126639, 0.3068421735097268,
    ),
    "pla_ml@oblivious": (
        1.0, 0.3330446330619551, 0.33759620731029233,
        0.33111841444337603, 0.3248088618618062, 0.31977159172019987,
        0.3122752176126639, 0.3068421735097268,
    ),
    "pma": (
        1.0, 0.9762944405428708, 0.9817246513646769,
        0.9352775759016279, 0.8985157508736631, 0.8711463706724758,
        0.8326164579299777, 0.8060050746672036,
    ),
    "pma@oblivious": (
        1.0, 0.9762944405428708, 0.9817246513646769,
        0.9352775759016279, 0.8985157508736631, 0.8711463706724758,
        0.8326164579299777, 0.8060050746672036,
    ),
}


def test_modeled_curves_match_pinned_values():
    got = modeled_curves()
    assert got.keys() == PINNED_CURVES.keys()
    for key, curve in PINNED_CURVES.items():
        assert got[key] == pytest.approx(curve, rel=1e-12, abs=0), key


def span_digests() -> dict[str, str]:
    """Digest of the traced span ``structure()`` of each pLA driver, as
    ``<run>@<graph>`` on karate and R-MAT 10."""
    import repro

    out = {}
    for gname in ("karate", "rmat10"):
        g = CORPUS[gname]()
        runs = {
            "pla": ("pla", {}),
            "pla_ml": ("pla", {"multilevel": True}),
            "local_resweep": ("local_resweep", _warm_resweep(g.n_vertices)),
        }
        for name, (algo, kwargs) in runs.items():
            root = repro.obs.run(algo, g, **kwargs).trace
            out[f"{name}@{gname}"] = _sha1(repr(root.structure()).encode())
    return out


PINNED_SPANS: dict[str, str] = {
    "local_resweep@karate": "fb5987d22e80adbc4296c1a18defb5126a7b7017",
    "local_resweep@rmat10": "23a059610343ad0a086be3fe319a85fa8245c2ba",
    "pla@karate": "038f734879355bb44fd2f35643bd980817b63632",
    "pla@rmat10": "d56076dd253ec67f3bb790a3e4c8a0035471eb4e",
    "pla_ml@karate": "ff67cf5e86cdbd1a1c0c8d427d87046557434177",
    "pla_ml@rmat10": "38e17964bd4f2808ef98cfc770619306e0f419fd",
}


def test_span_structures_match_pinned_digests():
    assert span_digests() == PINNED_SPANS


#: The ``level`` span attributes of a traversal, in span order.
_LEVEL_ATTRS = ("depth", "frontier", "direction", "arcs", "discovered")


def level_digests() -> dict[str, str]:
    """Digest of each msbfs run's span ``structure()`` plus every
    ``level`` span's attributes, as ``<run>@<graph>`` on karate and
    R-MAT 10: one word of 16 lanes, two words (70 lanes) and closeness
    (whose batches are msbfs runs)."""
    import repro

    out = {}
    for gname in ("karate", "rmat10"):
        g = CORPUS[gname]()
        n = g.n_vertices
        runs = {
            "msbfs16": ("msbfs", {"sources": _lane_sources(n, 16)}),
            "msbfs70": ("msbfs", {"sources": _lane_sources(n, 70)}),
            "closeness": ("closeness", {"sources": _lane_sources(n, 40)}),
        }
        for name, (algo, kwargs) in runs.items():
            root = repro.obs.run(algo, g, **kwargs).trace
            levels = [
                tuple(sp.attrs[key] for key in _LEVEL_ATTRS)
                for _, sp in root.walk() if sp.name == "level"
            ]
            assert levels, name
            out[f"{name}@{gname}"] = _sha1(
                repr(root.structure()).encode(), repr(levels).encode()
            )
    return out


PINNED_LEVELS: dict[str, str] = {
    "closeness@karate": "bb9b73cb68179e28a6d2d7c77fe41c99a6d1762a",
    "closeness@rmat10": "f89af164e8deeeefcd358e88315f4ce523b9c7eb",
    "msbfs16@karate": "b452b43bf6af934ed07b4cdc04ff4bcbd0f5ae77",
    "msbfs16@rmat10": "ee6e94a010686d8ba505560130b3b7b8d9fb7ea0",
    "msbfs70@karate": "720843c0f2d3154f5c5891ff3b1f8eea60715c0f",
    "msbfs70@rmat10": "2bb7a6ac353b7894ef58a1b8528e0c4db6e431a6",
}


def test_msbfs_level_spans_match_pinned_digests():
    assert level_digests() == PINNED_LEVELS


def superstep_digests(tmp_dir) -> dict[str, str]:
    """Digest of every superstep ``sharded_msbfs`` runs — its phase name
    and the arrays (bytes and dtype) and ``None`` slots of each payload
    — plus the distance plane, as ``K<lanes>@<graph>`` on k = 3 shards
    of karate and R-MAT 10."""
    from repro.sharded import BSPDriver, sharded_msbfs

    out = {}
    for gname in ("karate", "rmat10"):
        g = CORPUS[gname]()
        ss = build_shard_set(g, tmp_dir / f"msbfs-{gname}", k=3)
        for lanes in (3, 70):
            drv = BSPDriver(ss)
            orig, h = drv.superstep, hashlib.sha1()

            def superstep(phase, worker, payloads, **kw):
                h.update(phase.encode())
                for p in payloads:
                    for x in p[2:]:
                        if isinstance(x, np.ndarray):
                            h.update(x.dtype.str.encode() + x.tobytes())
                        else:
                            h.update(repr(x).encode())
                return orig(phase, worker, payloads, **kw)

            drv.superstep = superstep
            res = sharded_msbfs(ss, _lane_sources(g.n_vertices, lanes), driver=drv)
            h.update(res.distances.tobytes() + repr(res.n_levels).encode())
            out[f"K{lanes}@{gname}"] = h.hexdigest()
    return out


PINNED_SUPERSTEPS: dict[str, str] = {
    "K3@karate": "3c042151402e17b834f5f8457fc659e308da2e6e",
    "K3@rmat10": "9cbf50422703d0034c1e4ecf0cb77ecb58d08937",
    "K70@karate": "303688b36113851b87a4c408a1b63e4a8df98983",
    "K70@rmat10": "7c0b0e25e6169619dc7b8343d1f87de5afc5d58a",
}


def test_sharded_msbfs_supersteps_match_pinned_digests(tmp_path):
    assert superstep_digests(tmp_path) == PINNED_SUPERSTEPS


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_results_match_pinned_digests(name, tmp_path):
    got = compute_digests(name, tmp_path)
    assert got == PINNED[name]
    # sharded pLA is specified as bit-identical to the in-core mode
    assert got["sharded_pla"] == got["pla_ml"]


def _modularity_add_at(graph, labels) -> float:
    """``modularity()`` as it accumulated before ISSUE 16: three
    ``np.add.at`` scatters (kept here as the loop-order reference)."""
    _, dense = np.unique(labels, return_inverse=True)
    k = int(dense.max()) + 1
    u, v = graph.edge_endpoints()
    w = graph.edge_weights()
    total_w = float(w.sum())
    intra = np.zeros(k, dtype=np.float64)
    same = dense[u] == dense[v]
    np.add.at(intra, dense[u[same]], w[same])
    strength = np.zeros(k, dtype=np.float64)
    np.add.at(strength, dense[u], w)
    np.add.at(strength, dense[v], w)
    return float(
        intra.sum() / total_w - float(((strength / (2.0 * total_w)) ** 2).sum())
    )


@pytest.mark.parametrize("name", ["float_weighted", "contracted_loops", "rmat10"])
def test_modularity_bincount_equals_add_at_bit_for_bit(name):
    g = CORPUS[name]()
    n = g.n_vertices
    rng = np.random.default_rng(5)
    candidates = [
        np.arange(n),
        np.zeros(n, dtype=np.int64),
        np.arange(n) // 7,
        rng.integers(0, 5, n),
        rng.integers(-3, 40, n) * 1000,  # arbitrary, non-dense ids
        pla(g, multilevel=True).labels,
    ]
    for labels in candidates:
        assert modularity(g, labels) == _modularity_add_at(g, labels)  # not approx


if __name__ == "__main__":  # regenerate the table
    import pathlib
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(
            {n: compute_digests(n, pathlib.Path(tmp)) for n in sorted(CORPUS)},
            width=100,
        )
    pprint.pprint(cost_digests(), width=100)
    pprint.pprint(modeled_curves(), width=100)
    pprint.pprint(span_digests(), width=100)
    pprint.pprint(level_digests(), width=100)
    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint(superstep_digests(pathlib.Path(tmp)), width=100)
