#!/usr/bin/env python3
"""The bench ledger: one command, every metric by name, outputs verified.

    python3 benchmarks/perf/run.py [run] [--workload W] [--seed N] [--seconds S]
                                   [--trace 0|1] [--runs N] [--quick] [--out F]
    python3 benchmarks/perf/run.py aa --sets 2 --runs N [--workload W]
    python3 benchmarks/perf/run.py compare A.json B.json

``run`` is the default command, and the form the acceptance driver uses
(``BENCHMARK.json`` ``command`` plus ``--workload W --seed N --seconds S
--trace 0|1``): its last line of stdout is one JSON object with the last
run's metrics.

Run protocol (same for every workload): inputs are generated once from
the seed (untimed); a run is ``ROUNDS`` rounds, each in a fresh process
(a fresh daemon for the serve workload); each round times one setup
pass, warms every op class once, then times each class as one
contiguous block with tracing off; samples are pooled over the rounds.
See README.md for why each of those choices is forced by this box.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 40  # a round takes 3-8 s; a run must end inside 180

if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: no program to measure ({SRC / 'repro'} is missing)")
sys.path[:0] = [str(HERE), str(SRC)]

import stats  # noqa: E402
from base import ROUNDS, RUN_SECONDS, TRACED_ROUNDS, run_round  # noqa: E402
from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer, pooled  # noqa: E402
from spans import Tracer, by_name  # noqa: E402
from workloads import WORKLOADS, scaled_reps  # noqa: E402


# ---------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------
def fingerprint() -> dict:
    import numpy

    thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thp": thp.read_text().strip() if thp.exists() else "unknown",
        "machine": platform.machine(),
    }


def child_env(tmp: Path) -> dict:
    """Environment of every process the harness starts: ``repro`` on the
    path, temp files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmp)
    return env


def child_round(spec: dict, scratch: Path, env: dict) -> dict:
    """Run ``child.py`` in a fresh interpreter and read back its record."""
    spec_path, out_path = scratch / "spec.json", scratch / "result.json"
    spec_path.write_text(json.dumps(spec))
    spec_arg = [sys.executable, str(HERE / "child.py"), str(spec_path), str(out_path)]
    try:
        proc = subprocess.run(
            spec_arg + [repr(time.time())], env=env, timeout=CHILD_TIMEOUT_S,
            capture_output=True, text=True,
        )
        failure = proc.stderr[-2000:] if proc.returncode else ""
    except subprocess.TimeoutExpired:
        failure = f"round timed out after {CHILD_TIMEOUT_S}s"
    if failure or not out_path.exists():
        return {"attempted": 1, "failed": 1, "errors": [failure or "no result"],
                "verify_errors": [], "samples": {}, "digests": {},
                "shm_leaked": []}
    return json.loads(out_path.read_text())


def run_workload(
    name: str, seed: int, *, seconds: float = RUN_SECONDS,
    traced: bool = False, quick: bool = False,
) -> dict:
    """Generate inputs, run the rounds, pool, verify; returns the record."""
    wl = WORKLOADS[name]
    n_rounds = 1 if quick else TRACED_ROUNDS if traced else ROUNDS
    reps = scaled_reps(wl, seconds, quick)
    tmp = OUT / f"tmp-{os.getpid()}-{name}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = child_env(tmp)
    load_start, t0 = os.getloadavg(), time.perf_counter()
    rounds = []
    try:
        spec = wl.generate(seed, tmp)
        spec.update(workload=name, reps=reps, traced=traced, env=env)
        for r in range(n_rounds):
            scratch = tmp / f"round{r}"
            scratch.mkdir()
            # round 0 is verified against the oracles; the digests tie
            # every later round to it (see assemble)
            spec.update(scratch=str(scratch), verify=(r == 0))
            shm_before = set(os.listdir("/dev/shm"))
            if wl.in_runner:
                rec = run_round(wl, spec, time.time())
            else:
                rec = child_round(spec, scratch, env)
            rec["shm_leaked"] += sorted(set(os.listdir("/dev/shm")) - shm_before)
            rounds.append(rec)
            shutil.rmtree(scratch, ignore_errors=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return assemble(wl, seed, rounds, reps, traced, quick, {
        **fingerprint(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "wall_s": time.perf_counter() - t0,
    })


def assemble(wl, seed, rounds, reps, traced, quick, machine) -> dict:
    """Pool the rounds into the run record; every problem fails it."""
    problems = []
    for r, rd in enumerate(rounds):
        problems += [f"round {r}: {e}" for e in rd["errors"] + rd["verify_errors"]]
        problems += [f"round {r}: leaked shm {s}" for s in rd.get("shm_leaked", [])]
    for cls in reps:
        seen = {tuple(rd["digests"].get(cls, ())) for rd in rounds}
        calls_agree = cls in wl.stateful or len(set(next(iter(seen)))) == 1
        if len(seen) != 1 or not calls_agree:
            problems.append(f"{cls}: outputs differ between calls or rounds")
    failed = sum(rd["failed"] for rd in rounds)
    samples = pooled(rounds)
    rec = {
        "workload": wl.name, "seed": seed, "traced": traced,
        "rounds": len(rounds), "reps_per_round": reps,
        "attempted": sum(rd["attempted"] for rd in rounds),
        "failed": failed,
        "ok": not problems and not failed,
        "problems": problems,
        # comparable = full protocol on a box with a core per load thread
        "comparable": not quick and wl.load_threads <= (os.cpu_count() or 1),
        "machine": machine,
        "classes": {},
        "end_to_end": {},
        "per_layer": {},
    }
    if rec["ok"]:
        rec["classes"] = {  # in ms
            cls: stats.summarize([1000.0 * x for x in xs])
            for cls, xs in samples.items()
        }
        rec["end_to_end"] = end_to_end(rounds)
        rec["raw"] = {
            "samples_s": samples,
            "setup_s": [rd["setup_s"] for rd in rounds],
            "rss_kb": [rd["rss_kb"] for rd in rounds],
        }
        if traced:
            rec["per_layer"] = per_layer(wl.name, rounds)
            # a p90 with fewer than ten samples beyond it is a hint only
            rec["indicative"] = sorted(
                f"op.{cls}.p90_ms"
                for cls, xs in pooled(rounds, "traced_samples").items()
                if not stats.supports_percentile(len(xs), 0.9)
            )
            merged = Tracer(wl.name)
            for rd in rounds:
                merged.extend(rd["spans"])
            rec["spans"] = merged.spans
    return rec


# ---------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------
def print_run(rec: dict) -> None:
    m = rec["machine"]
    label = "" if rec["comparable"] else "  [NON-COMPARABLE]"
    print(f"\n== {rec['workload']} seed={rec['seed']} "
          f"rounds={rec['rounds']} wall={m['wall_s']:.1f}s "
          f"ops={rec['attempted']} failed={rec['failed']} "
          f"{'OK' if rec['ok'] else 'FAILED'}{label}")
    for p in rec["problems"]:
        print(f"   !! {p}")
    for cls, s in rec["classes"].items():
        p75 = f"  p75={s['p75']:.1f}ms" if "p75" in s else ""
        print(f"   class {cls:<20} n={s['n']:<3} min={s['min']:.1f}ms  "
              f"p50={s['p50']:.1f}ms{p75}")
    for name, value in rec["end_to_end"].items():
        unit, better, bound = END_TO_END[name]
        print(f"   {name:<34} {value:>12.4f} {unit:<6} "
              f"({better} is better, bound {bound:.0%})")
    own = {k for k, (_, _, w) in PER_LAYER.items() if w in ("*", rec["workload"])}
    for name in sorted(own & set(rec["per_layer"])):
        hint = "  [indicative: n < 100]" if name in rec["indicative"] else ""
        print(f"   {name:<34} {rec['per_layer'][name]:>14.4f} "
              f"{PER_LAYER[name][0]}{hint}")
    if rec.get("spans"):
        print("   span                               calls   total_s    self_s")
        for name, agg in sorted(by_name(rec["spans"]).items()):
            print(f"   {name:<34} {agg['calls']:>5} "
                  f"{agg['total_s']:>9.3f} {agg['self_s']:>9.3f}")


def save(doc, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1))
    print(f"wrote {path}")


def measure(name: str, seed: int, **kw) -> dict:
    """Run, report, and write a traced run's spans out at the end."""
    rec = run_workload(name, seed, **kw)
    print_run(rec)
    if rec.get("spans"):
        save(rec.pop("spans"), OUT / f"trace_{name}.json")
    return rec


def contract_line(rec: dict) -> str:
    """The driver's result object: every end-to-end metric of an
    untraced run, every per-layer metric of a traced one."""
    table, values = (
        (PER_LAYER, rec["per_layer"]) if rec["traced"]
        else (END_TO_END, rec["end_to_end"])
    )
    return json.dumps({
        "correct": rec["ok"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {
            name: {"value": values[name], "unit": table[name][0]}
            for name in table
        },
    })


def cmd_run(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    for i in range(args.runs):
        for name in names:
            runs.append(measure(
                name, args.seed + i, seconds=args.seconds,
                traced=bool(args.trace), quick=args.quick,
            ))
    save({"runs": runs}, Path(args.out) if args.out else OUT / "run.json")
    if not all(r["ok"] for r in runs):
        print("run.py: run failed, no result", file=sys.stderr)
        return 1
    print(contract_line(runs[-1]))
    return 0


def by_metric(runs: list[dict]) -> dict:
    """(workload, metric) -> values of the comparable, untraced runs; a
    run that failed contributes a ``None``, which fails its pairs."""
    out: dict = {}
    for rec in runs:
        if rec["comparable"] and not rec["traced"]:
            for metric in END_TO_END:
                out.setdefault((rec["workload"], metric), []).append(
                    rec["end_to_end"].get(metric)
                )
    return out


def same_code_verdict(a, b, bound, better) -> str:
    """A/A: the two medians may differ by the bound in either direction."""
    change = stats.worse_by(statistics.median(a), statistics.median(b), better)
    return "PASS" if abs(change) <= bound else "FAIL"


def print_comparison(a: dict, b: dict, judge=stats.verdict) -> bool:
    """Per workload x metric rows; returns whether every pair passed.  A
    pair that one side lacks, or that has a failed run, does not pass."""
    print(f"{'workload':<18}{'metric':<13}{'A q1/med/q3':<30}"
          f"{'B q1/med/q3':<30}{'worse':>8} {'bound':>6}  verdict")
    passed = True
    for key in sorted(set(a) | set(b)):
        unit, better, bound = END_TO_END[key[1]]
        xs, ys = a.get(key, []), b.get(key, [])
        if not xs or not ys or None in xs or None in ys:
            why = "; ".join(
                f"{side}: " + ("no runs" if not vs else
                               f"{vs.count(None)} of {len(vs)} runs failed")
                for side, vs in (("A", xs), ("B", ys)) if not vs or None in vs
            )
            print(f"{key[0]:<18}{key[1]:<13}FAILED ({why})")
            passed = False
            continue
        change = stats.worse_by(
            statistics.median(xs), statistics.median(ys), better
        )
        verdict = judge(xs, ys, bound, better)
        passed &= verdict in ("ok", "PASS")

        def show(vs):
            return "/".join(stats.fmt(q) for q in stats.quartiles(vs))

        print(f"{key[0]:<18}{key[1]:<13}{show(xs):<30}{show(ys):<30}"
              f"{change:>+8.1%} {bound:>6.0%}  {verdict} "
              f"(n={len(xs)}/{len(ys)}, spread A {stats.spread(xs):.1%}, "
              f"B {stats.spread(ys):.1%})")
    return passed


def cmd_aa(args) -> int:
    """Same code, alternating sets A1 B1 A2 B2 ...: must agree."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    sets: list[list] = [[] for _ in range(args.sets)]
    for i in range(args.runs):
        for k in range(args.sets):
            for name in names:
                sets[k].append(measure(name, args.seed + i))
    save({"sets": sets}, OUT / "aa.json")
    ok = True
    for k in range(1, args.sets):
        print(f"\nA/A: set 0 vs set {k}")
        ok &= print_comparison(
            by_metric(sets[0]), by_metric(sets[k]), same_code_verdict
        )
    print("A/A", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    a = by_metric(json.loads(Path(args.a).read_text())["runs"])
    b = by_metric(json.loads(Path(args.b).read_text())["runs"])
    return 0 if print_comparison(a, b) else 1


COMMANDS = {"run": cmd_run, "aa": cmd_aa, "compare": cmd_compare}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in COMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "run")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="print every metric; verify every output")
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                   help="scales reps_per_round by seconds / %(default)s")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: the traced run that yields the per-layer metrics")
    p.add_argument("--runs", type=int, default=1,
                   help="repeat with seeds seed, seed+1, ...")
    p.add_argument("--quick", action="store_true",
                   help="smoke: 1 round, 2 reps, numbers non-comparable")
    p.add_argument("--out")
    p = sub.add_parser("aa", help="two sets of runs of the same code")
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=5)
    p = sub.add_parser("compare", help="compare two `run --out` files")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args(argv)
    return COMMANDS[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
