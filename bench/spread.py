#!/usr/bin/env python3
"""Run each workload repeatedly and print the spread of every end-to-end metric.

    python3 bench/spread.py --seeds 1-10

Run it from the repository root. Each run is ``bench/run.py`` with another
seed, one after another, on every workload of ``BENCHMARK.json`` and for its
``run_seconds``. For every workload and metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (q3 - q1) / median, then the bound each metric would get by the
rule in bench/README.md: three times the largest spread over the workloads,
rounded up to a multiple of 0.05, at least BOUND_FLOOR and at most
BOUND_CAP; setup_s always gets BOUND_CAP. It also prints each workload's
share of failed operations, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUND_FLOOR = 0.10
BOUND_CAP = 0.25


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bound_for(spread: float) -> float:
    return min(BOUND_CAP, max(BOUND_FLOOR, math.ceil(3.0 * spread / 0.05 - 1e-9) * 0.05))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Spread of the end-to-end metrics over seeds")
    parser.add_argument("--seeds", default="1-10", help="inclusive range 'a-b'")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    results = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results[workload] = []
        for seed in seeds:
            out = run_once(workload, seed, SPEC["run_seconds"])
            results[workload].append(out)
            print(f"{workload} seed {seed}: attempted {out['attempted']} failed {out['failed']}"
                  f" correct {out['correct']}", file=sys.stderr)

    worst = {}
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: {len(runs)} runs, failed share {shares}, all correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst[metric] = max(worst.get(metric, 0.0), spread)
            print(f"  {metric:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f}")

    print("\nbounds (3 x largest spread, rounded up to 0.05, within "
          f"[{BOUND_FLOOR}, {BOUND_CAP}]; setup_s gets {BOUND_CAP}):")
    for metric, spread in worst.items():
        bound = BOUND_CAP if metric == "setup_s" else bound_for(spread)
        print(f"  {metric:<16} largest spread {spread:.4f} -> bound {bound:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
