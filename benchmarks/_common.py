"""Shared helpers for the table/figure reproduction harnesses.

Each paper harness ends in :func:`report`, which writes one record,
``benchmarks/results/<experiment>.json``, re-renders that experiment's
block in EXPERIMENTS.md from it, and only then fails on every false
criterion by name.  A record holds:

* ``experiment`` and ``bench_scale`` (``SNAP_BENCH_SCALE``);
* ``columns`` and ``rows``: the regenerated table, with the paper's
  value in the column beside ours wherever the harness holds one;
* ``criteria``: every shape assertion as ``{name: [ok, value, bound]}``;
* ``wall``: every wall-clock quantity (``columns``/``rows``, one row per
  row of the table) and every criterion that compares wall times.
  Everything outside ``wall`` is deterministic at a given scale.

``SNAP_BENCH_SCALE`` (a float multiplier, default 1.0) scales every
instance size used by the harnesses: the defaults are sized to finish in
minutes on one CPU; pushing the multiplier toward the paper's full sizes
only changes runtime, not the comparisons.
"""

from __future__ import annotations

import json
import operator
import os
import re
import time
from pathlib import Path
from typing import Callable

import numpy as np

RESULTS_DIR = Path(__file__).resolve().parent / "results"
EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
_BLOCK = re.compile(r"<!-- record: (\w+) -->\n(.*?)<!-- /record -->\n", re.S)


def bench_scale(default: float = 1.0) -> float:
    """Per-harness instance scale times the global env multiplier."""
    mult = float(os.environ.get("SNAP_BENCH_SCALE", "1.0"))
    return default * mult


def write_result_json(name: str, payload: dict) -> Path:
    """Persist a machine-readable benchmark record (and echo it)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    text = json.dumps(payload, indent=2, sort_keys=True, default=_plain)
    path.write_text(text + "\n")
    print(f"\n=== {name} ===")
    print(text)
    return path


def _plain(obj):
    """NumPy scalars as the Python numbers JSON knows."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def criterion(ok, value, bound) -> list:
    """One shape check as a record stores it."""
    return [bool(ok), value, bound]


def check(value, op: str, bound) -> list:
    """The criterion ``value <op> bound``."""
    return criterion(_OPS[op](value, bound), value, bound)


def report(experiment, rows, criteria, wall_rows=(), wall_criteria=None) -> None:
    """Write the experiment's record and its EXPERIMENTS.md block, then
    fail if any criterion is false.  ``rows`` (and ``wall_rows``, one per
    row) are dicts keyed by column name, in column order."""
    assert not wall_rows or len(wall_rows) == len(rows), "one wall row per row"
    wall = dict(criteria=wall_criteria or {}, **_table(wall_rows))
    record = dict(experiment=experiment, bench_scale=bench_scale(),
                  criteria=criteria, wall=wall, **_table(rows))
    path = write_result_json(experiment, record)
    record = json.loads(path.read_text())  # render what a reader loads
    doc = EXPERIMENTS_MD.read_text()
    marker = f"<!-- record: {experiment} -->\n"
    start = doc.index(marker) + len(marker)
    end = doc.index("<!-- /record -->\n", start)
    EXPERIMENTS_MD.write_text(doc[:start] + render(record) + doc[end:])
    failed = [name for name, (ok, *_) in [*criteria.items(), *wall["criteria"].items()]
              if not ok]
    assert not failed, f"{experiment}: failed criteria {failed}"


def _table(rows) -> dict:
    return dict(columns=list(rows[0]) if rows else [], rows=[list(r.values()) for r in rows])


def doc_blocks(doc: str) -> dict[str, str]:
    """``{experiment: rendered block}`` for every record block of ``doc``."""
    return dict(_BLOCK.findall(doc))


def render(record: dict) -> str:
    """A record as the markdown EXPERIMENTS.md shows: a one-line caption
    (criteria tally, any failing by name), then the table, wall-clock
    columns last and marked †."""
    wall = record["wall"]
    columns = record["columns"] + [f"{c} †" for c in wall["columns"]]
    rows = [r + w for r, w in zip(record["rows"], wall["rows"] or [[]] * len(record["rows"]))]
    caption = (f"`{record['experiment']}.json` at `SNAP_BENCH_SCALE` "
               f"{record['bench_scale']:g}: {_tally(record['criteria'])}")
    if wall["criteria"]:
        caption += f"; wall-clock {_tally(wall['criteria'])}"
    if wall["columns"]:
        caption += "; † wall clock, one recorded run"
    lines = [f"*{caption}.*", "", "| " + " | ".join(columns) + " |",
             "|" + "---|" * len(columns)]
    lines += ["| " + " | ".join(map(_cell, r)) + " |" for r in rows]
    return "\n".join(lines) + "\n"


def _tally(criteria: dict) -> str:
    failed = [name for name, (ok, *_) in criteria.items() if not ok]
    text = f"{len(criteria) - len(failed)} of {len(criteria)} criteria hold"
    return text + "".join(f", fails `{name}`" for name in failed)


def _cell(value) -> str:
    if value is None:
        return "–"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.3g}"
    return str(value)


def timed(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    """(result, wall seconds) of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0

