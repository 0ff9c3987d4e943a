"""Trace sinks: JSON-lines stream, human-readable flame view.

Two views of one :class:`~repro.obs.tracer.Span` tree besides its
nested :meth:`~repro.obs.tracer.Span.to_dict` (the ``trace`` of every
profile document, written by :meth:`repro.obs.RunResult.save`):

* :func:`iter_jsonl` — one flat JSON object per span (``id``/``parent``
  links), the streaming-friendly export;
* :func:`flame_summary` — per-path aggregation (calls, total/self
  seconds) rendered as an indented text "flame" for terminals.
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.obs.tracer import Span

__all__ = [
    "iter_jsonl",
    "flame_summary",
]


def iter_jsonl(root: Span) -> Iterator[str]:
    """One JSON line per span, parents before children.

    Each line carries ``id`` (preorder index), ``parent`` (parent id,
    ``null`` for the root), ``depth``, ``name``, ``duration_s`` and the
    span's attrs — a flat stream any log pipeline can ingest.
    """
    counter = 0
    stack: list[tuple[Span, int, int]] = [(root, -1, 0)]
    while stack:
        sp, parent, depth = stack.pop()
        sid = counter
        counter += 1
        yield json.dumps(
            {
                "id": sid,
                "parent": None if parent < 0 else parent,
                "depth": depth,
                "name": sp.name,
                "duration_s": round(sp.duration, 9),
                **{f"attr_{k}": v for k, v in sp.attrs.items()},
            },
            sort_keys=True,
        )
        for c in reversed(sp.children):
            stack.append((c, sid, depth + 1))


def flame_summary(root: Span, *, max_depth: int = 6, min_fraction: float = 0.002) -> str:
    """Indented per-path aggregation of a span tree.

    Sibling spans with the same name are merged (count, total seconds,
    self seconds); rows below ``min_fraction`` of the root's time or
    deeper than ``max_depth`` are folded away.  The result reads like a
    collapsed flame graph::

        betweenness                 1x  0.412s (self 0.001s)
          map_batches               1x  0.410s (self 0.002s)
            batch                  16x  0.408s (self 0.010s)
              level               142x  0.398s
    """
    total = max(root.duration, 1e-12)
    lines: list[str] = []

    def visit(spans: list[Span], depth: int) -> None:
        if depth > max_depth or not spans:
            return
        groups: dict[str, list[Span]] = {}
        order: list[str] = []
        for sp in spans:
            if sp.name not in groups:
                groups[sp.name] = []
                order.append(sp.name)
            groups[sp.name].append(sp)
        for name in order:
            members = groups[name]
            tot = sum(sp.duration for sp in members)
            if tot / total < min_fraction:
                continue
            child_t = sum(c.duration for sp in members for c in sp.children)
            self_t = max(0.0, tot - child_t)
            pad = "  " * depth
            label = f"{pad}{name}"
            lines.append(
                f"{label:<40s} {len(members):>6d}x {tot:>9.4f}s"
                + (f" (self {self_t:.4f}s)" if members[0].children else "")
            )
            visit([c for sp in members for c in sp.children], depth + 1)

    visit([root], 0)
    return "\n".join(lines)
