#!/usr/bin/env python3
"""Steadiness check for the zdgraph benchmark.

Runs SETS independent sets of RUNS untraced runs of each workload, each run
with its own seed and with the run length from BENCHMARK.json, interleaving
the workloads so that drift of the machine hits them alike.  For every
end-to-end metric and workload it prints each set's median and its spread,
(q3 - q1) / median with the quartiles of statistics.quantiles(n=4); whether
that spread is within the metric's bound (setup_s is exempt); and whether
each later set's median is no worse than the first set's by more than the
bound.  Exits 1 if any run was incorrect or any of those comparisons fails.

  python3 perfbench/steady.py [--runs 10] [--sets 2] [--workload NAME ...] [--seed-base N]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPREAD_EXEMPT = {"setup_s"}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "metrics": {}, "error": proc.stderr[-500:]}
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> list of per-run values
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(args.sets)]
    incorrect = 0
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed_base + 1000 * s + i
                res = run_once(w, seed, spec["run_seconds"])
                incorrect += not res.get("correct", False)
                for m in metrics:
                    if m["name"] in res["metrics"]:
                        values[s][w][m["name"]].append(res["metrics"][m["name"]]["value"])
                print(f"set {s} run {i} {w} seed {seed} correct {res.get('correct')} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)

    ok = incorrect == 0
    rows = []
    print(f"\n{'workload':<12} {'metric':<13} {'bound':>5}  " + "  ".join(
        f"{'median' + str(s):>12} {'spread' + str(s):>8}" for s in range(args.sets)) + "  verdict")
    for w in workloads:
        for m in metrics:
            series = [values[s][w][m["name"]] for s in range(args.sets)]
            if any(len(v) < 2 for v in series):
                ok = False
                print(f"{w:<12} {m['name']:<13} too few values")
                continue
            meds = [statistics.median(v) for v in series]
            spreads = [spread(v) for v in series]
            spread_ok = m["name"] in SPREAD_EXEMPT or max(spreads) <= m["bound"]
            drift = [worse_by(meds[0], med, m["better"]) for med in meds[1:]]
            agree = all(d <= m["bound"] for d in drift)
            ok = ok and spread_ok and agree
            verdict = ("ok" if spread_ok and agree else "FAIL") + (
                "" if m["name"] in SPREAD_EXEMPT or max(spreads) < m["bound"] / 3 else " (spread above bound/3)")
            rows.append({"workload": w, "metric": m["name"], "bound": m["bound"], "medians": meds,
                         "spreads": spreads, "worse_by": drift, "spread_ok": spread_ok, "agree": agree})
            print(f"{w:<12} {m['name']:<13} {m['bound']:>5}  " + "  ".join(
                f"{med:>12.6g} {sp:>8.4f}" for med, sp in zip(meds, spreads)) + f"  {verdict}")
    print(f"\nincorrect runs: {incorrect}; overall: {'steady' if ok else 'NOT steady'}")
    out = BENCH / "results" / f"steady-seed{args.seed_base}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": args.runs, "sets": args.sets, "values": values, "rows": rows}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
