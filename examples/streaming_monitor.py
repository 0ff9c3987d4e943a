#!/usr/bin/env python3
"""Monitoring a transient interaction stream (paper §1's motivation +
§6's dynamic-networks future work).

Simulates a stream of interaction events ("massive, transient data
streams") over a fixed entity population, ingested in batches by a
:class:`~repro.dynamic.StreamEngine`: connectivity, degree and triangle
statistics stay exact under every insertion/deletion, a burst score
over the last events flags an injected anomaly, and the engine's CSR
snapshot feeds the heavier static analyses (community structure via
spectral modularity).

Run:  python examples/streaming_monitor.py
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np

from repro.community import spectral_modularity
from repro.dynamic import EdgeEvent, StreamEngine

BATCH = 64
WINDOW = 256


def main() -> None:
    rng = np.random.default_rng(7)
    n = 400
    blocks = np.repeat(np.arange(4), n // 4)  # latent communities

    engine = StreamEngine(n, analytics=("components", "stats", "degree"))
    recent: deque[EdgeEvent] = deque(maxlen=WINDOW)
    pending: list[EdgeEvent] = []
    live: list[tuple[int, int]] = []
    last = None

    def flush():
        nonlocal last
        if pending:
            last = engine.apply_batch(pending)
            pending.clear()

    def emit(kind: str, u: int, v: int) -> None:
        ev = EdgeEvent(kind, u, v, t=engine.n_batches)
        pending.append(ev)
        recent.append(ev)
        if len(pending) == BATCH:
            flush()

    # --- phase 1: organic growth (mostly intra-community contacts) ----
    for step in range(4000):
        if rng.random() < 0.9:
            b = int(rng.integers(0, 4))
            members = np.nonzero(blocks == b)[0]
            u, v = rng.choice(members, size=2, replace=False)
        else:
            u, v = rng.integers(0, n, size=2)
        if u != v:
            emit("add", int(u), int(v))
            live.append((int(u), int(v)))
    flush()
    print(
        f"after growth: {last.n_edges} edges, "
        f"{last.n_components} components, "
        f"clustering {last.global_clustering:.3f}, "
        f"{last.n_triangles} triangles"
    )

    # --- phase 2: churn (drop stale contacts) --------------------------
    rng.shuffle(live)
    for u, v in live[:600]:
        emit("delete", u, v)
    flush()
    print(
        f"after churn:  {last.n_edges} edges, "
        f"{last.n_components} components, "
        f"clustering {last.global_clustering:.3f}"
    )

    # --- phase 3: anomaly — one entity suddenly contacts everyone ------
    attacker = 13
    for _ in range(120):
        emit("add", attacker, int(rng.integers(0, n)))
    flush()
    touches = Counter(x for ev in recent for x in {ev.u, ev.v})
    top = [(v, c / len(recent)) for v, c in touches.most_common(3)]
    print("burst scores (top 3):", [(v, round(s, 2)) for v, s in top])
    assert top[0][0] == attacker, "anomaly detection missed the attacker"
    print(f"flagged entity {top[0][0]} "
          f"({top[0][1]:.0%} of recent events) — matches injected anomaly")

    # --- phase 4: snapshot → static community analysis -----------------
    result = spectral_modularity(
        engine.snapshot(), rng=np.random.default_rng(0)
    )
    print(f"snapshot communities: {result.summary()}")
    # latent blocks should dominate the found communities
    agreement = 0.0
    for b in range(4):
        found = result.labels[blocks == b]
        agreement += np.max(np.bincount(found)) / found.shape[0]
    print(f"alignment with latent communities: {agreement / 4:.0%}")


if __name__ == "__main__":
    main()
