"""The calibration helper against a synthetic, phase-changing host.

Run with ``python3 -m pytest loginbench/tests`` from the repository root.
"""

import ast
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from calibrate import Calibrator, ScanReference, reference_unit  # noqa: E402
from ops import OpRecord, Recorder, Summary  # noqa: E402

UNIT_COST = 0.0004  # what the reference costs on an unslowed host
OP_COST = 0.0030  # what the synthetic operation costs there


class SlowingHost:
    """A fake timer.  Work advances it by its cost times the current
    slowdown, which changes phase by phase (every ``phase_len`` ops)."""

    def __init__(self, phases, phase_len):
        self.now = 0.0
        self.phases = phases
        self.phase_len = phase_len
        self.ops = 0

    @property
    def slowdown(self):
        return self.phases[(self.ops // self.phase_len) % len(self.phases)]

    def timer(self):
        return self.now

    def unit(self):
        self.now += UNIT_COST * self.slowdown

    def work(self, cost):
        self.now += cost * self.slowdown
        self.ops += 1


def run(phases, op_cost=OP_COST, ops=2000, phase_len=250, ref_every=1):
    host = SlowingHost(phases, phase_len)
    cal = Calibrator(nominal=UNIT_COST, timer=host.timer, unit=host.unit)
    recorder = Recorder(cal, ref_every)
    recorder.enabled = True
    cal.reference()
    for _ in range(ops):
        with recorder.op("synthetic"):
            host.work(op_cost)
        recorder.after_op()
    recorder.flush()
    return Summary(recorder.records), recorder.records


def test_phase_changing_slowdown_cancels():
    steady, _ = run([1.0])
    slowed, records = run([1.0, 1.9, 1.3, 2.2, 1.1])
    raw = [r.raw for r in records]
    assert max(raw) / min(raw) > 2.0  # the raw figures do move
    assert slowed.p50 == pytest.approx(steady.p50, rel=1e-9)
    assert slowed.p99 == pytest.approx(steady.p99, rel=1e-9)
    # The one segment that straddles each phase edge blends two speeds:
    # the busy-time total stays equal to three significant digits.
    assert slowed.throughput == pytest.approx(steady.throughput, rel=1e-3)
    assert steady.p50 == pytest.approx(OP_COST, rel=1e-9)


def test_phase_change_inside_a_segment_only_moves_that_segment():
    # References every 7 ops: phase edges (every 250) fall inside a
    # segment, whose factor then blends both phases.  The median does not
    # move; the busy-time total moves by less than the blended share.
    steady, _ = run([1.0], ref_every=7)
    slowed, _ = run([1.0, 1.9, 1.3, 2.2], ref_every=7)
    assert slowed.p50 == pytest.approx(steady.p50, rel=1e-9)
    assert slowed.throughput == pytest.approx(steady.throughput, rel=0.02)


def test_twice_the_work_reads_twice():
    single, _ = run([1.0, 1.7, 1.2])
    double, _ = run([1.0, 1.7, 1.2], op_cost=2 * OP_COST)
    assert double.p50 == pytest.approx(2 * single.p50, rel=1e-9)
    assert double.p99 == pytest.approx(2 * single.p99, rel=1e-9)
    assert double.throughput == pytest.approx(single.throughput / 2, rel=1e-3)


def test_span_before_first_reference_is_refused():
    cal = Calibrator()
    with pytest.raises(RuntimeError):
        cal.track(OpRecord("early"))


def test_reference_is_median_of_repeats():
    readings = iter([0.001, 0.009, 0.002])
    clock = {"t": 0.0}

    def timer():
        return clock["t"]

    def unit():
        clock["t"] += next(readings)

    cal = Calibrator(nominal=0.001, timer=timer, unit=unit, repeats=3)
    assert cal.reference() == pytest.approx(0.002)


def test_real_reference_unit_runs():
    cal = Calibrator()
    readings = [cal.reference() for _ in range(5)]
    assert all(r > 0 for r in readings)
    assert statistics.median(readings) < 0.05
    assert reference_unit(4) == reference_unit(4)


def test_reference_unit_imports_nothing_from_the_program():
    tree = ast.parse((HERE.parent / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "repro" not in imported
    assert imported <= {"__future__", "gc", "hashlib", "hmac", "statistics", "time", "typing"}


def _records(confirm_cost, confirm_fails):
    records = []
    for i in range(300):
        for kind, cost in (("repair", 0.002 + i * 1e-6), ("repair_confirm", confirm_cost)):
            record = OpRecord(kind)
            record.raw, record.factor = cost, 1.0
            if kind == "repair_confirm" and confirm_fails:
                record.fail("no_token: unknown user", expected=True)
            records.append(record)
    return records


def test_untimed_kind_moves_only_the_failed_share():
    # A cheap failing confirmation, then the same run with the fault
    # fixed and the confirmation doing real work: the timing is the same.
    faulty = Summary(_records(0.0001, True), untimed=("repair_confirm",))
    fixed = Summary(_records(0.0050, False), untimed=("repair_confirm",))
    assert (faulty.attempted, faulty.failed) == (600, 300)
    assert (fixed.attempted, fixed.failed) == (600, 0)
    assert faulty.samples == fixed.samples == 300
    for name in ("p50", "p99", "throughput"):
        assert getattr(faulty, name) == getattr(fixed, name)


def test_scan_reference_walks_a_fixed_amount():
    scan = ScanReference(entries=60, per_run=20)
    assert [len(chunk) for chunk in scan.chunks] == [20, 20, 20]
    assert [scan() for _ in range(4)] == [0] * 4  # nobody matches the filter
    assert scan._next == 1
    cal = Calibrator(unit=ScanReference())
    assert all(cal.reference() > 0 for _ in range(3))
