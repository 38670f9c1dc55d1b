#!/usr/bin/env python3
"""Repeatability of the MARLin benchmark.

    python3 perfbench/repeat.py -k 10                       # every workload
    python3 perfbench/repeat.py -k 5 --workload train-pp24 --seed0 11

Runs each chosen workload K times through run.py, one seed per
repetition (seed0, seed0+1, ...), alternating the order of the
workloads between repetitions so slow drift of the machine hits all
of them alike. For every end-to-end metric it prints the median, the
first and third quartile (statistics.quantiles(values, n=4)), the
spread (q3 - q1) / median and the metric's bound from BENCHMARK.json;
a spread above a third of the bound is flagged. It also prints the
share of failed operations per run. All runs' results are written to
.bench_build/out/repeat.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    if proc.returncode != 0:
        sys.exit(f"repeat.py: {workload} seed {seed} failed "
                 f"(exit {proc.returncode}): {last}")
    return json.loads(last)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("-k", type=int, default=10,
                        help="repetitions per workload")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to repeat (default: all)")
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or names

    results = {w: [] for w in workloads}
    for i in range(args.k):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, args.seed0 + i, args.seconds)
            results[w].append(r)
            print(f"run {i + 1}/{args.k} {w} seed {args.seed0 + i}: " +
                  ", ".join(f"{n}={m['value']:.6g}"
                            for n, m in r["metrics"].items()),
                  flush=True)

    out = ROOT / ".bench_build" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(results, indent=1))

    steady = True
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: {len(runs)} runs, failed share "
              f"{sorted(shares)}")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4)
                         if len(vals) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  > bound/3"
                steady = False
            print(f"  {m['name']:<20} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {spread:>8.4f} {m['bound']:>6}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
