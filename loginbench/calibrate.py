"""Host-speed calibration for wall-clock figures.

The shared host this benchmark runs on changes speed in phases: a fixed
unit of pure-Python work has been seen to take anywhere from 11 ms to
21 ms, in phases lasting from 0.3 s to over 20 s.  A raw wall-clock
figure therefore measures the host as much as the program.

:class:`Calibrator` interleaves a short, fixed *reference unit* with the
program's work.  Every measured span is scaled by
``nominal / mean(reference before, reference after)``: the figure the
span would read on a host where the reference unit takes exactly
:data:`NOMINAL_REFERENCE_S`.  A slowdown that hits the program and the
reference alike cancels out.

A reference only cancels a slowdown that hits it as it hits the work, so
there are two units: :func:`reference_unit` for interpreter and hashing
work (set-up, the RADIUS and churn workloads) and :class:`ScanReference`
for a workload whose time is one filter evaluated over a whole directory.

This module imports nothing from ``repro``: the reference must not move
when the program changes.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import statistics
import time
from typing import Callable, List, Optional, Protocol

#: What one reference reads on the nominal host, in seconds.  Fixed for
#: the life of the benchmark: changing it rescales every calibrated
#: figure.  It is close to what the reference read on the machine the
#: benchmark was written on (2 vCPU, Python 3.11), so calibrated and raw
#: figures there are comparable.
NOMINAL_REFERENCE_S = 0.0002

#: Iterations of each inner loop of one reference sub-run.
REFERENCE_ITERATIONS = 24

#: Sub-runs per reference; the reference reads their median, so a single
#: preemption inside one sub-run does not move it.
REFERENCE_REPEATS = 3

_KEY = b"loginbench-calibration-reference"


class _Row:
    __slots__ = ("serial", "fields", "count")

    def __init__(self, serial: str, fields: dict, count: int) -> None:
        self.serial = serial
        self.fields = fields
        self.count = count

    def bump(self, amount: int) -> int:
        self.count += amount
        return self.count


def reference_unit(iterations: int = REFERENCE_ITERATIONS) -> int:
    """A fixed amount of work shaped like the program's own.

    Interpreter work first — small dict rows built, copied and read,
    method calls on slotted objects, string formatting, a short queue —
    then the hashing the program does: HMAC-SHA1 (the HOTP primitive)
    with dynamic truncation, and SHA-256 (the password and key hashes).
    """
    acc = 0
    recent = []
    for i in range(iterations):
        fields = {"serial": f"LS{i:06d}", "user": "u%05d" % i, "active": True, "failcount": i & 3}
        row = _Row(fields["serial"], fields, i)
        acc += row.bump(fields["failcount"]) + len(fields["user"])
        recent.append(dict(fields))
        if len(recent) > 8:
            recent.pop(0)
        acc ^= hash(fields["user"]) & 0xFFFF
    for i in range(iterations):
        mac = hmac.new(_KEY, i.to_bytes(8, "big"), hashlib.sha1).digest()
        offset = mac[-1] & 0x0F
        word = int.from_bytes(mac[offset : offset + 4], "big") & 0x7FFFFFFF
        acc = (acc * 31 + word) & 0xFFFFFFFF
        acc ^= hashlib.sha256(mac).digest()[0]
    return acc ^ len(recent)


#: What one scan reference reads on the nominal host, in seconds; fixed
#: like :data:`NOMINAL_REFERENCE_S`, and close to what the scan read on
#: the same machine while the interpreter reference read about 0.2 ms.
NOMINAL_SCAN_REFERENCE_S = 0.0009

#: Entries in the scan reference's directory: more than a core's L2 holds.
SCAN_ENTRIES = 4000

#: Entries one scan sub-run walks.
SCAN_PER_RUN = 400


class _Entry:
    def __init__(self, dn: str, attributes: dict) -> None:
        self.dn = dn
        self.attributes = attributes

    def get(self, attr: str) -> list:
        return self.attributes.get(attr.lower(), [])


class ScanReference:
    """A fixed amount of work shaped like a directory search.

    :func:`reference_unit` tracks work that lives in the core's caches,
    but a filter evaluated over every entry of a large directory does
    not move with it: when the host changed speed, the reference read
    2.4x faster while such a scan ran 3.4x faster.  This unit keeps its
    own directory of ``entries`` entries (built once, outside any
    timing) in dicts of ``per_run`` entries, and each call walks the next
    dict with the steps a search takes: a subtree test on the DN,
    then an equality filter on a lower-cased attribute.  Consecutive
    calls walk different entries, so the walk keeps leaving the core's
    caches.
    """

    def __init__(self, entries: int = SCAN_ENTRIES, per_run: int = SCAN_PER_RUN) -> None:
        if per_run < 1 or entries < per_run:
            raise ValueError("need 1 <= per_run <= entries")
        self.base = "ou=people,dc=example,dc=org"
        # Entries are dealt to the dicts in turn, so the entries one call
        # walks lie apart in memory, as a directory's do once built among
        # everything else an account holds.
        self.chunks: List[dict] = [{} for _ in range(entries // per_run)]
        for i in range(len(self.chunks) * per_run):
            uid = "p%05d" % i
            dn = "uid=%s,%s" % (uid, self.base)
            self.chunks[i % len(self.chunks)][dn] = _Entry(dn, {
                "objectclass": ["top", "person", "posixaccount"],
                "uid": [uid],
                "cn": ["Person %d" % i],
                "mail": ["%s@example.org" % uid],
                "uidnumber": [str(5000 + i)],
                "homedirectory": ["/home/" + uid],
                "loginshell": ["/bin/bash"],
            })
        self._next = 0

    def __call__(self) -> int:
        base = self.base
        predicate = lambda e, a="uid", v="nobody": any(x.lower() == v for x in e.get(a))  # noqa: E731
        found = 0
        for dn, entry in self.chunks[self._next].items():
            if (dn == base or dn.endswith("," + base)) and predicate(entry):
                found += 1
        self._next = (self._next + 1) % len(self.chunks)
        return found


class Tracked(Protocol):
    """Anything whose raw duration a reference later calibrates."""

    factor: float


class Calibrator:
    """Interleaves references with measured spans and scales the spans.

    Call :meth:`reference` before the first span, :meth:`track` each
    measured span, and :meth:`reference` again every few spans; each
    reference sets ``factor`` on every span tracked since the previous
    one.  ``timer`` and ``unit`` are injectable so tests can drive the
    calibrator with a synthetic clock.
    """

    def __init__(
        self,
        nominal: float = NOMINAL_REFERENCE_S,
        timer: Callable[[], float] = time.perf_counter,
        unit: Callable[[], object] = reference_unit,
        repeats: int = REFERENCE_REPEATS,
    ) -> None:
        if nominal <= 0 or repeats < 1:
            raise ValueError("nominal must be positive and repeats at least 1")
        self.nominal = nominal
        self.timer = timer
        self._unit = unit
        self._repeats = repeats
        self.references: List[float] = []
        self._pending: List[Tracked] = []
        self._last: Optional[float] = None

    def reference(self) -> float:
        """Run the reference unit (collector paused) and close a segment."""
        timer = self.timer
        readings = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self._repeats):
                started = timer()
                self._unit()
                readings.append(timer() - started)
        finally:
            if collecting:
                gc.enable()
        took = statistics.median(readings)
        if took <= 0:
            raise RuntimeError("reference unit read a non-positive duration")
        self.references.append(took)
        if self._pending:
            factor = self.nominal / ((self._last + took) / 2.0)
            for span in self._pending:
                span.factor = factor
            self._pending.clear()
        self._last = took
        return took

    def track(self, span: Tracked) -> None:
        """Queue ``span`` for the factor the next reference sets."""
        if self._last is None:
            raise RuntimeError("take a reference before the first measured span")
        self._pending.append(span)

    @property
    def pending(self) -> int:
        return len(self._pending)

    def speed_spread(self) -> float:
        """Max/min ratio of the references taken: how much the host moved."""
        if not self.references:
            return 1.0
        return max(self.references) / min(self.references)
