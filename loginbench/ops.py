"""Operation records, the closed-loop recorder and the run's accounting."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

from calibrate import Calibrator


class OpRecord:
    """One operation: its kind, raw wall time, calibration and outcome."""

    __slots__ = ("kind", "raw", "factor", "failed", "reason", "expected", "trace")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.raw = 0.0
        self.factor = float("nan")
        self.failed = False
        self.reason = ""
        #: True when the failure is the known, named fault the benchmark
        #: keeps and counts; any other failure breaks correctness.
        self.expected = False
        self.trace = None

    @property
    def calibrated(self) -> float:
        return self.raw * self.factor

    def fail(self, reason: str, expected: bool = False) -> None:
        if not self.failed:
            self.failed, self.reason, self.expected = True, reason, expected


class Recorder:
    """Times operations for one closed-loop client.

    :meth:`op` opens a record and times its body; :meth:`more` adds a
    further timed segment to an open record (an operation the client
    pauses inside, e.g. to wait for the next code).  :meth:`after_op`
    closes a top-level operation and takes a calibration reference every
    ``ref_every`` of them.  While ``enabled`` is false (warm-up) nothing
    is kept.
    """

    def __init__(self, cal: Calibrator, ref_every: int, tracer=None) -> None:
        self.cal = cal
        self.ref_every = ref_every
        self.tracer = tracer
        self.records: List[OpRecord] = []
        self.enabled = False
        self._since_reference = 0

    @contextmanager
    def op(self, kind: str) -> Iterator[OpRecord]:
        record = OpRecord(kind)
        if self.enabled:
            self.records.append(record)
            self.cal.track(record)
        with self.more(record):
            yield record

    @contextmanager
    def more(self, record: OpRecord) -> Iterator[OpRecord]:
        tracer = self.tracer if self.enabled else None
        if tracer is not None:
            tracer.begin(record)
        timer = self.cal.timer
        started = timer()
        try:
            yield record
        except Exception as exc:  # the program raised: count it, keep running
            record.fail(f"{type(exc).__name__}: {exc}")
        finally:
            record.raw += timer() - started
            if tracer is not None:
                tracer.end()

    def after_op(self) -> None:
        if not self.enabled:
            return
        self._since_reference += 1
        if self._since_reference >= self.ref_every:
            self.cal.reference()
            self._since_reference = 0

    def flush(self) -> None:
        """Close the last segment so every record has its factor."""
        if self.cal.pending:
            self.cal.reference()
        self._since_reference = 0


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Summary:
    """End-to-end figures and accounting over a list of records.

    The timing figures cover every operation whose kind is not in
    ``untimed``: the kinds that hold a known fault.  Those are counted in
    the accounting but kept out of the timing whether they fail or not,
    so a fix for the fault shows as a drop in the failed share and moves
    the timing only by what it changes in the other operations.
    Throughput is the timed operations over their total calibrated busy
    time, and the percentiles are taken over the whole run.
    """

    def __init__(self, records: List[OpRecord], untimed: Iterable[str] = ()) -> None:
        self.records = records
        untimed = frozenset(untimed)
        timed = [r for r in records if r.kind not in untimed]
        ok, ok_raw = sorted(r.calibrated for r in timed), sorted(r.raw for r in timed)
        busy, busy_raw = sum(ok), sum(ok_raw)
        self.attempted = len(records)
        self.failed = sum(1 for r in records if r.failed)
        self.samples = len(ok)
        self.throughput = len(ok) / busy if busy > 0 else 0.0
        self.throughput_raw = len(ok_raw) / busy_raw if busy_raw > 0 else 0.0
        self.p50 = statistics.median(ok) if ok else 0.0
        self.p99 = percentile(ok, 99) if ok else 0.0
        self.p50_raw = statistics.median(ok_raw) if ok_raw else 0.0
        self.p99_raw = percentile(ok_raw, 99) if ok_raw else 0.0
        self.beyond_p99 = sum(1 for v in ok if v > self.p99)

    def by_kind(self) -> Dict[str, Dict[str, object]]:
        table: Dict[str, Dict[str, object]] = {}
        for record in self.records:
            row = table.setdefault(
                record.kind, {"attempted": 0, "failed": 0, "reasons": Counter()}
            )
            row["attempted"] += 1
            if record.failed:
                row["failed"] += 1
                row["reasons"][record.reason] += 1
        return table

    def accounting_lines(self) -> List[str]:
        lines = []
        for kind, row in sorted(self.by_kind().items()):
            lines.append(
                f"  {kind:<16} attempted {row['attempted']:>7}  failed {row['failed']:>6}"
            )
            for reason, n in sorted(row["reasons"].items()):
                lines.append(f"      {n:>6} x {reason}")
        return lines


def first_failure(records: List[OpRecord]) -> Optional[str]:
    for record in records:
        if record.failed and not record.expected:
            return f"{record.kind}: {record.reason}"
    return None
