"""Run one workload of the directory-scale login benchmark.

    python3 loginbench/run.py --workload ssh_login_10k --seed 1 --seconds 16 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
run: build the 10,000-account deployment several times (``setup_s`` is the
median), check it, warm up, then drive the workload's closed loop for
``--seconds`` seconds in whole rounds, and for at least the workload's
``min_rounds`` (1,000 timed operations, so ten samples lie beyond the
p99; on a slow host this takes longer).  With ``--trace 0`` the whole
run is untraced and the end-to-end metrics are reported; with ``--trace 1``
the first half is traced (per-layer metrics, JSON span dump under
``.loginbench/traces/``) and the second half untraced, and the difference
in throughput is printed as the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phase(workload, rec, seconds: float, min_rounds: int = 0, hooks=None) -> None:
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` ran;
    ``hooks`` maps a round count to what is called once it is done."""
    hooks = hooks or {}
    min_rounds = max([min_rounds, *hooks])
    timer = rec.cal.timer
    started = timer()
    rounds = 0
    while rounds < min_rounds or timer() - started < seconds:
        workload.round(rec)
        rounds += 1
        if rounds in hooks:
            hooks[rounds]()
    rec.flush()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from calibrate import NOMINAL_SCAN_REFERENCE_S, Calibrator, ScanReference
    from deployment import build, check_tally, make_plan
    from ops import Recorder, Summary, first_failure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    kind = WORKLOADS[args.workload]

    cal = Calibrator()
    for _ in range(5):
        cal.reference()

    spans = None
    if args.trace:
        from tracing import SpanRecorder

        spans = SpanRecorder(cal.timer)
        spans.install()

    plan = make_plan(args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        dep = None
        gc.collect()
        dep = build(plan, kind.full_stack, cal)
        setups.append((dep.setup_s, dep.setup_raw_s))
    problems = check_tally(dep)

    # Set-up is calibrated with the interpreter reference; the measured
    # loop with the reference its workload's work is shaped like.
    op_cal = cal
    if kind.scan_reference:
        op_cal = Calibrator(nominal=NOMINAL_SCAN_REFERENCE_S, unit=ScanReference())
        for _ in range(5):
            op_cal.reference()
    workload = kind(dep, args.seed)
    recorder = Recorder(op_cal, kind.ref_every)
    for _ in range(kind.warmup_rounds):
        workload.round(recorder)
    recorder.enabled = True
    op_cal.reference()

    traced_records = []
    rss = []
    if args.trace:
        recorder.tracer = spans
        spans.attach(dep)
        try:
            run_phase(workload, recorder, args.seconds / 2, kind.count_rounds)
        finally:
            spans.uninstall()
        recorder.tracer = None
        traced_records = list(recorder.records)
        run_phase(workload, recorder, args.seconds / 2)
    else:
        # The resident set grows with the records the program retains, so
        # it is read after a fixed amount of work: a faster program, which
        # fits more rounds into the same seconds, is not charged for them.
        run_phase(workload, recorder, args.seconds, kind.min_rounds,
                  {kind.rss_rounds: lambda: rss.append(peak_rss_mb())})

    problems += workload.final_checks()
    records = recorder.records
    summary = Summary(records, kind.untimed_kinds)
    unexpected = first_failure(records)
    if unexpected:
        problems.append(f"unexpected failure: {unexpected}")
    correct = not problems

    setup_cal = statistics.median(s for s, _ in setups)
    setup_raw = statistics.median(r for _, r in setups)
    rss_mb = rss[0] if rss else peak_rss_mb()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"set-up x{len(setups)}: calibrated "
          + ", ".join(f"{s:.3f}" for s, _ in setups)
          + " s; raw " + ", ".join(f"{r:.3f}" for _, r in setups) + " s")
    calibrators = {"interpreter reference": cal}
    if op_cal is not cal:
        calibrators = {"interpreter reference, set-up": cal, "scan reference, operations": op_cal}
    for label, c in calibrators.items():
        print(f"calibration ({label}): nominal {c.nominal * 1e3:.3f} ms, "
              f"{len(c.references)} references, median {statistics.median(c.references) * 1e3:.3f} ms, "
              f"host speed moved {c.speed_spread():.2f}x (max/min)")
    untimed = ", ".join(kind.untimed_kinds) or "none"
    print(f"operations: {summary.attempted} attempted, {summary.failed} failed, "
          f"{summary.samples} timed (untimed kinds: {untimed}), "
          f"{summary.beyond_p99} samples beyond the p99")
    print("\n".join(summary.accounting_lines()))
    print(f"{'metric':<18} {'calibrated':>12} {'raw':>12}  unit")
    e2e = {
        "setup_s": (setup_cal, setup_raw),
        "latency_p50_ms": (summary.p50 * 1e3, summary.p50_raw * 1e3),
        "latency_p99_ms": (summary.p99 * 1e3, summary.p99_raw * 1e3),
        "throughput_ops_s": (summary.throughput, summary.throughput_raw),
        "peak_rss_mb": (rss_mb, peak_rss_mb()),
    }
    for name, (value, raw) in e2e.items():
        print(f"{name:<18} {value:>12.4f} {raw:>12.4f}  {END_TO_END[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        from tracing import LAYER_METRICS, STATE_METRICS, metric_unit

        traced = Summary(traced_records, kind.untimed_kinds)
        untraced = Summary(records[len(traced_records):], kind.untimed_kinds)
        overhead = (untraced.throughput / traced.throughput - 1.0) if traced.throughput else 0.0
        print(f"tracing overhead: traced {traced.throughput:.2f} ops/s vs untraced "
              f"{untraced.throughput:.2f} ops/s (calibrated): {overhead * 100:+.1f}% time per op")
        count_ops = kind.count_rounds * kind.round_size
        layer = spans.metrics(count_ops)
        print(f"per-layer figures over {len(traced_records)} traced ops "
              f"(counts over the first {count_ops}):")
        for name in [m[0] for m in LAYER_METRICS] + list(STATE_METRICS):
            print(f"  {name:<46} {layer[name]:>14.4f}  {metric_unit(name)}")
        print("self-time breakdown per op (calibrated us, share of op time):")
        for name, us, share in spans.breakdown():
            print(f"  {name:<30} {us:>12.1f} us  {share * 100:6.2f}%")
        dump = os.path.join(".loginbench", "traces", f"{args.workload}-seed{args.seed}.json")
        print(f"spans written to {spans.dump(dump, args.workload, args.seed)}")
        metrics = {name: {"value": value, "unit": metric_unit(name)} for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, (value, _) in e2e.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
