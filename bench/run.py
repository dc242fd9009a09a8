#!/usr/bin/env python3
"""Benchmark for entdetect: drives the package through its public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It imports entdetect from ``src/`` next to
this directory and fails with exit code 2 when that source tree is absent.

Each workload runs as a closed loop with one client: operations run back to
back in this process, with BLAS/OpenMP pinned to one thread. The loop runs
whole rounds of operations until ``--seconds`` have passed. Every output is
checked by the independent checker; an operation whose output fails a check,
or that raises, counts as failed and the run continues.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced pass, whose spans go to ``bench/out/trace-<workload>.json``.
Workload names and metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 3
MAX_REPORTED_FAILURES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Operations attempted and failed, with per-operation latencies."""

    def __init__(self, known_fault: str):
        self.known_fault = known_fault
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures other than the known shot-mode fault
        self.states = 0
        self.latencies_ns: list = []
        self.round_rates: list = []  # states per second of operation time, per round

    def run_rounds(self, workload, rounds=0, seconds=0.0, wrap=None) -> None:
        """Run whole rounds, at least `rounds` of them and until `seconds` pass."""
        deadline = time.perf_counter() + seconds
        k = 0
        while k < rounds or time.perf_counter() < deadline:
            ops_before, states_before = len(self.latencies_ns), self.states
            for op in workload.round(k):
                self.run_op(op, wrap)
            self.round_rates.append((self.states - states_before) * 1e9 / sum(self.latencies_ns[ops_before:]))
            k += 1

    def run_op(self, op, wrap=None) -> None:
        self.attempted += 1
        try:
            with wrap() if wrap else contextlib.nullcontext():
                t = time.perf_counter_ns()
                try:
                    out = op.run()
                finally:
                    self.latencies_ns.append(time.perf_counter_ns() - t)
            self.states += op.states
            problems = op.check(out)
        except Exception as exc:  # an operation that raises counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.unexpected += problems != [self.known_fault]
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"failed operation {self.attempted}: {'; '.join(problems[:3])}", file=sys.stderr)


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(tally: Tally, setup_s: float) -> dict:
    lat_ms = [v / 1e6 for v in tally.latencies_ns]
    return {
        "setup_s": setup_s,
        "states_per_s": statistics.median(tally.round_rates),
        "latency_ms_p50": _quantile(lat_ms, 0.5),
        "latency_ms_p90": _quantile(lat_ms, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(workload, build, args, known_fault) -> tuple:
    """The workload's fixed number of rounds, repeated untraced for a third
    of the run, then traced once from freshly built inputs, so that every
    count depends on the inputs alone; returns both tallies and the
    per-layer metrics."""
    import spans

    plain = Tally(known_fault)
    deadline = time.perf_counter() + args.seconds / 3.0
    repeats = 0
    while repeats == 0 or time.perf_counter() < deadline:
        plain.run_rounds(workload, rounds=workload.trace_rounds)
        repeats += 1
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            workload = build(args.seed)
        tracer.ops_begin = len(tracer.start)
        traced = Tally(known_fault)
        traced.run_rounds(workload, rounds=workload.trace_rounds, wrap=lambda: tracer.span("bench.op"))
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer, traced.states, workload.pool_states)
    # The untraced pass ran the same operations `repeats` times.
    metrics["trace.overhead_ratio"] = sum(traced.latencies_ns) * repeats / sum(plain.latencies_ns)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}.json")
    return (plain, traced), metrics


def reported(values: dict, section: str) -> dict:
    """The metrics BENCHMARK.json lists in `section`, with their units."""
    specs = SPEC[section]
    if set(values) != {m["name"] for m in specs}:
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json {section}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "entdetect" / "__init__.py").is_file():
        print(f"error: no entdetect source tree at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    t0 = time.perf_counter()
    import checker
    import entdetect
    import workloads

    import_s = time.perf_counter() - t0
    if Path(entdetect.__file__).resolve().parent != SRC_DIR / "entdetect":
        print(f"error: imported entdetect from {entdetect.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"error: BENCHMARK.json names workload {args.workload!r}, which bench/workloads.py lacks", file=sys.stderr)
        return 2
    # Building the inputs plus one untimed warm-up operation, repeated; the
    # median is added to the one-off import time.
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload = build(args.seed)
        workload.round(0)[0].run()
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    if args.trace:
        tallies, values = traced_pass(workload, build, args, checker.KNOWN_FAULT)
        metrics = reported(values, "per_layer")
    else:
        tallies = (Tally(checker.KNOWN_FAULT),)
        tallies[0].run_rounds(workload, seconds=args.seconds)
        metrics = reported(end_to_end(tallies[0], setup_s), "end_to_end")

    print(
        json.dumps(
            {
                "correct": not any(t.unexpected for t in tallies),
                "attempted": sum(t.attempted for t in tallies),
                "failed": sum(t.failed for t in tallies),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
