"""Run every workload N times in fresh processes and report the spread.

    python3 loginbench/steady.py                  # each workload once
    python3 loginbench/steady.py --runs 10        # the steadiness check

Run from the repository root.  Each run is ``loginbench/run.py`` in its own
process with its own seed (``--seed-base`` + i), for every workload in
``BENCHMARK.json`` and for its ``run_seconds``.  Every run's operation
accounting and end-to-end metrics are echoed; then, per workload and
metric, the median, the quartiles (``statistics.quantiles(n=4)``), the
interquartile range as a share of the median, the max/min spread, and the
metric's bound from ``BENCHMARK.json``; a spread above its bound is
flagged.
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


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return lines[:-1], json.loads(lines[-1])


def spread_rows(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    iqr = (q3 - q1) / median if median else 0.0
    span = max(values) / min(values) - 1.0 if min(values) > 0 else float("inf")
    return median, q1, q3, iqr, span


def main(argv=None) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    units = {m["name"]: m["unit"] for m in config["end_to_end"]}
    collected = {}
    for workload in (w["name"] for w in config["workloads"]):
        values = collected.setdefault(workload, {name: [] for name in bounds})
        shares = set()
        for i in range(args.runs):
            seed = args.seed_base + i
            text, result = run_once(workload, seed, config["run_seconds"], 0)
            print("\n".join(text))
            print()
            shares.add((result["failed"], result["attempted"]))
            ok = "correct" if result["correct"] else "NOT CORRECT"
            print(f"# {workload} seed {seed}: {ok}, {result['attempted']} attempted, "
                  f"{result['failed']} failed", flush=True)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        ratios = sorted({f"{f / a:.6f}" for f, a in shares})
        print(f"# {workload}: failed share over runs: {', '.join(ratios)}\n", flush=True)

    if args.runs < 2:
        return 0
    print(f"{'workload':<18} {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'iqr/med':>8} {'max/min-1':>9} {'bound':>6}  unit")
    for workload, values in collected.items():
        for name, series in values.items():
            median, q1, q3, iqr, span = spread_rows(series)
            flag = "" if iqr <= bounds[name] else "  OVER BOUND"
            print(f"{workload:<18} {name:<18} {median:>11.4f} {q1:>11.4f} {q3:>11.4f} "
                  f"{iqr * 100:>7.2f}% {span * 100:>8.2f}% {bounds[name]:>6.2f}  "
                  f"{units[name]}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
