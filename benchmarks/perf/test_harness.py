"""Tests of the bench harness itself (not part of tier-1 ``testpaths``).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO / "src")]

import run as ledger  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from base import ROUNDS, RUN_SECONDS  # noqa: E402
from metrics import END_TO_END, PER_LAYER, end_to_end  # noqa: E402
from workloads import WORKLOADS, scaled_reps  # noqa: E402

MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


# -- spans --------------------------------------------------------------
def _span(sid, parent, start, end, name="s"):
    return {"id": sid, "name": name, "parent": parent, "start": start,
            "end": end, "workload": "w", "op": None}


def test_self_time_subtracts_children():
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0),
            _span(2, 0, 6.0, 7.0), _span(3, 1, 2.0, 3.0)]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    # two load-generator threads under one op: [1,5] and [3,8] cover 7
    tree = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0),
            _span(2, 0, 3.0, 8.0), _span(3, 0, 4.0, 4.5)]
    assert spans.self_times(tree)[0] == pytest.approx(3.0)
    # a child that outlives its parent only covers the parent's interval
    assert spans.self_times(
        [_span(0, None, 0.0, 2.0), _span(1, 0, 1.0, 5.0)]
    )[0] == pytest.approx(1.0)


def test_tracer_records_parents_and_null_tracer_records_nothing():
    tr = spans.Tracer("w")
    with tr.span("outer") as outer:
        with tr.span("inner", op="x#0"):
            pass
    assert [s["parent"] for s in tr.spans] == [None, outer]
    assert tr.spans[1]["op"] == "x#0" and tr.spans[1]["workload"] == "w"
    other = spans.Tracer("w")
    other.extend(tr.spans)
    other.extend(tr.spans)
    assert [s["parent"] for s in other.spans] == [None, 0, None, 2]
    null = spans.NullTracer()
    with null.span("anything", op="y"):
        pass
    assert null.spans == []


# -- statistics ----------------------------------------------------------
def test_p75_only_when_ten_samples_lie_beyond_it():
    assert "p75" not in stats.summarize(list(range(39)))
    assert "p75" in stats.summarize(list(range(40)))
    assert not stats.supports_percentile(99, 0.9)
    assert stats.supports_percentile(100, 0.9)
    assert stats.summarize([3.0, 1.0, 2.0]) == {"n": 3, "min": 1.0, "p50": 2.0}


def test_quantile_interpolates_like_numpy():
    np = pytest.importorskip("numpy")
    xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    for q in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert stats.quantile(xs, q) == pytest.approx(np.quantile(xs, q))


def test_verdict_reports_unresolved_when_spread_exceeds_bound():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.verdict(steady, [x * 1.02 for x in steady], 0.08, "lower") == "ok"
    assert stats.verdict(steady, [x * 1.2 for x in steady], 0.08, "lower") == "REGRESSION"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert stats.verdict(noisy, [x * 1.05 for x in noisy], 0.08, "lower") == "unresolved"
    # ...unless every run of one side beats every run of the other
    assert stats.verdict(noisy, [x * 2 for x in noisy], 0.08, "lower") == "REGRESSION"
    assert stats.verdict(noisy, [x / 2 for x in noisy], 0.08, "lower") == "ok"
    assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.1)


def test_end_to_end_metrics_are_medians_over_the_rounds():
    rounds = [
        {"setup_s": s, "rss_kb": 1024 * r, "samples": {"a": a, "b": b}}
        for s, r, a, b in (
            (0.5, 10, [0.1, 0.3], [1.0]), (0.7, 30, [0.2, 0.2], [3.0]),
            (0.9, 20, [0.9, 0.2], [2.0]),
        )
    ]
    assert end_to_end(rounds) == pytest.approx(
        {"setup_s": 0.7, "mix_p50_ms": 200.0 + 2000.0, "peak_rss_mb": 20.0}
    )


# -- comparing ---------------------------------------------------------------
def _run(workload, values, ok=True):
    return {"workload": workload, "comparable": True, "traced": False, "ok": ok,
            "end_to_end": dict(zip(END_TO_END, values)) if ok else {}}


def test_compare_fails_on_a_missing_pair_or_a_failed_run(capsys):
    good = [_run("w", (1.0, 100.0, 50.0)), _run("w", (1.01, 101.0, 50.5))]
    a = ledger.by_metric(good)
    assert ledger.print_comparison(a, ledger.by_metric(good))
    # every run of the workload failed on side B: no row may vanish
    assert not ledger.print_comparison(a, ledger.by_metric([]))
    assert not ledger.print_comparison(ledger.by_metric([]), a)
    broken = good + [_run("w", (), ok=False)]
    assert not ledger.print_comparison(a, ledger.by_metric(broken))
    out = capsys.readouterr().out
    assert out.count("FAILED") == 3 * len(END_TO_END)
    assert "B: no runs" in out and "1 of 3 runs failed" in out


# -- inputs ----------------------------------------------------------------
@pytest.mark.parametrize("name", ["cluster_rmat12", "serve_rmat13"])
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    def generate(seed, where):
        (tmp_path / where).mkdir()
        spec = WORKLOADS[name].generate(seed, tmp_path / where)
        files = {p.name: p.read_bytes() for p in (tmp_path / where).iterdir()}
        plan = {k: v for k, v in spec.items() if k not in ("graph", "stream")}
        return files, plan

    assert generate(5, "a") == generate(5, "b")
    files5, plan5 = generate(5, "c")
    files6, plan6 = generate(6, "d")
    assert files5.keys() == files6.keys()
    assert all(files5[k] != files6[k] for k in files5)
    assert plan5 != plan6 or name == "cluster_rmat12"


def test_every_seed_relabels_the_same_equally_deep_sources():
    import numpy as np
    from inputs import pick_sources, rmat_edges, vertex_map
    from repro.graph import builder
    from repro.kernels import msbfs

    depths, picked = set(), set()
    for seed in (1, 2, 3):
        n, u, v = rmat_edges(11, seed)
        g = builder.from_edge_array(n, u, v, directed=False)
        src = pick_sources(11, 16, seed)
        assert len(set(src)) == 16
        depths |= set(msbfs(g, src).distances.max(axis=1).tolist())
        picked.add(tuple(sorted(np.argsort(vertex_map(11, seed))[src].tolist())))
    assert len(depths) == 1
    assert len(picked) == 1  # the direction switch sees the same levels


def test_reps_keep_the_pooled_sample_floor():
    for wl in WORKLOADS.values():
        reps = scaled_reps(wl, RUN_SECONDS, quick=False)
        assert reps == wl.classes
        assert all(n * ROUNDS >= 18 for n in reps.values())
        # BENCHMARK.json's key set is fixed, so `why` records the reps
        assert wl.why.endswith(" " + "/".join(str(n) for n in reps.values()))
        assert set(scaled_reps(wl, RUN_SECONDS, quick=True).values()) == {2}
        assert all(n >= 1 for n in scaled_reps(wl, 1, quick=False).values())


# -- manifest <-> code -------------------------------------------------------
def test_manifest_names_match_the_registry():
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert MANIFEST["paths"] == ["benchmarks/perf"]
    assert MANIFEST["command"][-1] == "benchmarks/perf/run.py"
    assert MANIFEST["run_seconds"] == RUN_SECONDS
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert all(len(w["why"]) <= 200 for w in MANIFEST["workloads"])
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"])
        for m in MANIFEST["end_to_end"]
    } == END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in MANIFEST["per_layer"]
    } == {k: v[:2] for k, v in PER_LAYER.items()}
    names = [w["name"] for w in MANIFEST["workloads"]] + [
        m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    # the driver's contract: at most 0.25, and set-up has the largest
    assert max(m["bound"] for m in MANIFEST["end_to_end"]) <= 0.25
    assert END_TO_END["setup_s"][2] == max(b for _, _, b in END_TO_END.values())
    # every per-layer metric has an owner that emits it
    owners = {w for _, _, w in PER_LAYER.values()}
    assert owners == {"*"} | set(WORKLOADS)


# -- end to end (slow: starts real processes) -----------------------------------
def test_quick_smoke_verifies_and_is_labelled_non_comparable():
    proc = subprocess.run(
        RUN + ["run", "--quick"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[NON-COMPARABLE]") == len(WORKLOADS)
    runs = json.loads((HERE / "out" / "run.json").read_text())["runs"]
    assert [r["workload"] for r in runs] == list(WORKLOADS)
    for rec in runs:
        assert rec["ok"] and not rec["comparable"] and rec["failed"] == 0
        assert set(rec["end_to_end"]) == set(END_TO_END)
        assert set(rec["classes"]) == set(WORKLOADS[rec["workload"]].classes)
    assert not list((HERE / "out").glob("tmp-*"))


def test_daemon_stops_on_request_even_if_the_runner_ignores_sigint(tmp_path):
    # a runner started with `&` by a non-interactive shell ignores SIGINT,
    # and children inherit that; the daemon must still take its stop signal
    import signal
    import time

    from serve import Daemon

    before = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        daemon = Daemon(ledger.child_env(tmp_path))
        t0 = time.perf_counter()
        daemon.stop()
    finally:
        signal.signal(signal.SIGINT, before)
    assert daemon.proc.returncode is not None
    assert time.perf_counter() - t0 < 5.0


def test_contract_traced_run_prints_every_per_layer_metric():
    proc = subprocess.run(
        RUN + ["--workload", "cluster_rmat12", "--seed", "2", "--seconds", "6",
               "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == set(PER_LAYER)
    for name, m in doc["metrics"].items():
        assert m["unit"] == PER_LAYER[name][0]
        owned = PER_LAYER[name][2] in ("*", "cluster_rmat12")
        assert owned or m["value"] == 0.0


def test_exits_non_zero_without_a_program_to_measure(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "cluster_rmat12", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
