"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 5] [--workload NAME ...] [--seconds S]

Runs ``2 x runs`` benchmark runs per workload, interleaving the two sets
(A, B, A, B, ...) and giving every run its own seed.  For each end-to-end
metric it prints each set's median and quartiles, the ratio of the
medians, whether that ratio stays within the metric's bound from
``BENCHMARK.json`` (either way round: the set labels are arbitrary), and
the spread of all runs (distance between the first and third quartile as
a share of the median), which must also stay within the bound.  The
failed share of operations must be the same in both sets.  Exits
non-zero when any of this fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seed of the first run; every further run takes the next one.
FIRST_SEED = 101


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, _q2, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=5, help="runs per set")
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    seed = FIRST_SEED
    for workload in args.workload or names:
        sets = ([], [])
        for i in range(2 * args.runs):
            sets[i % 2].append(run_once(workload, seed, args.seconds))
            seed += 1
        print(f"== {workload}: 2 sets of {args.runs} runs, "
              f"{args.seconds} s each")
        shares = [sorted({r["failed"] / r["attempted"] for r in s}) for s in sets]
        if shares[0] != shares[1]:
            ok = False
            print(f"  FAIL failed share differs: {shares[0]} vs {shares[1]}")
        if not all(r["correct"] for s in sets for r in s):
            ok = False
            print("  FAIL a run reported correct=false")
        for name, m in bounds.items():
            a = [r["metrics"][name]["value"] for r in sets[0]]
            b = [r["metrics"][name]["value"] for r in sets[1]]
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1]
            agree = max(ratio, 1.0 / ratio) - 1.0 <= m["bound"]
            all_spread = spread(a + b)
            steady = all_spread <= m["bound"]
            ok = ok and agree and steady
            print(f"  {name:26s} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  B/A {ratio:.4f}  "
                  f"spread {all_spread:.4f}  bound {m['bound']}  "
                  f"{'ok' if agree and steady else 'FAIL'}"
                  f"{'' if all_spread <= m['bound'] / 3 else ' (spread > bound/3)'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
