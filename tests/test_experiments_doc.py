"""EXPERIMENTS.md's tables are generated, not transcribed.

Each paper harness under ``benchmarks/`` writes one record,
``benchmarks/results/<experiment>.json``, and renders it into the block
between ``<!-- record: <experiment> -->`` and ``<!-- /record -->``.  Here
every block is rebuilt from its committed record and must match byte for
byte, so a hand-edited table or a missing record fails.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = (
    "table1_partitioning",
    "table2_modularity",
    "table3_datasets",
    "figure2_scaling",
    "figure3a_pbd_vs_gn",
    "figure3b_agglomerative_speedup",
    "ablation_sampling_fraction",
    "ablation_bridge_prepass",
    "ablation_degree_aware",
    "ablation_work_stealing",
)


def _load_common():
    spec = importlib.util.spec_from_file_location(
        "bench_common", ROOT / "benchmarks" / "_common.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


common = _load_common()
BLOCKS = common.doc_blocks((ROOT / "EXPERIMENTS.md").read_text())


def test_every_paper_experiment_has_one_block():
    assert sorted(BLOCKS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_block_is_its_committed_record_rendered(experiment):
    path = ROOT / "benchmarks" / "results" / f"{experiment}.json"
    record = json.loads(path.read_text())
    assert record["experiment"] == experiment
    assert set(record) == {
        "experiment", "bench_scale", "columns", "rows", "criteria", "wall"
    }
    assert BLOCKS[experiment] == common.render(record)

