"""Repeat benchmark runs over several seeds and summarise them.

Usage, from the root of the repository::

    python3 bench/reference.py [--workloads fidelity_study ...] \\
        [--seeds 1 2 3 4 5 6 7 8 9 10] [--seconds 25] [--trace 1]

By default it runs all four workloads once, at seed 0.  Runs are made one
after another, each in its own process, and each prints its operations
attempted and failed.  For every figure the runs print, the summary gives
the median, the quartiles of ``statistics.quantiles(values, n=4)`` and the
spread (Q3 - Q1) / median; with one run the quartiles equal the value.
With ``--trace 1`` it also gives each layer's median share of traced time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    out = {"result": json.loads(lines[-1]), "figures": {}, "shares": {}}
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] in ("metric", "layer"):
            out["figures"][parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "share":
            out["shares"][parts[1]] = float(parts[2])
        elif parts[0] == "trace":
            out["figures"]["trace.wall_s"] = (float(parts[2]), "s")
    return out


def summarise(workload: str, runs: list[dict]) -> None:
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    correct = all(r["result"]["correct"] for r in runs)
    print(f"\n## {workload}: {len(runs)} runs, {attempted} operations, "
          f"{failed} failed, correct={correct}")
    print("| metric | unit | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|---|")
    values = defaultdict(list)
    for r in runs:
        for name, (value, unit) in r["figures"].items():
            values[(name, unit)].append(value)
    for (name, unit), vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"| {name} | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} |")
    shares = defaultdict(list)
    for r in runs:
        for layer, share in r["shares"].items():
            shares[layer].append(share)
    if shares:
        print("\n| layer | median share of traced time |")
        print("|---|---|")
        for layer, vals in sorted(shares.items()):
            print(f"| {layer} | {statistics.median(vals):.1%} |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: attempted {res['attempted']}, "
                  f"failed {res['failed']}, correct {res['correct']}", flush=True)
        summarise(workload, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
