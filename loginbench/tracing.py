"""The traced run: spans around the program's public functions.

:class:`SpanRecorder` wraps functions of each layer from the benchmark's
own files (nothing inside the program changes).  Spans nest by caller; a
span's self time is its duration minus the time of the wrapped calls it
made.  Spans of one operation share the operation's id; they are kept in
memory and written out as JSON when the run ends.  Counters sit at the
same boundaries (datagrams sent, audit records, WAL records, HOTP
computations per TOTP check, LDAP entries examined per search).

Per-layer times are calibrated like the end-to-end ones: every span of an
operation is scaled by that operation's calibration factor.
"""

from __future__ import annotations

import json
import os
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro.crypto.totp as totp_module
import repro.directory.ldap as ldap_module
from ops import OpRecord
from repro.authflow.pipeline import AuthPipeline
from repro.authflow.stages import (
    ApplyOutcome,
    Audit,
    DispatchByTokenType,
    EvaluatePolicy,
    ReplayGuard,
    ResolveIdentity,
)
from repro.core.infrastructure import UsernameResolvingBackend
from repro.crypto.secrets import SecretSealer
from repro.crypto.totp import TOTPValidator
from repro.directory.identity import IdentityBackend
from repro.directory.ldap import LDAPDirectory
from repro.ingest.queue import QueuedBackend
from repro.otpserver.admin_api import AdminAPI
from repro.otpserver.audit import AuditLog
from repro.otpserver.server import OTPServer
from repro.otpserver.sms_gateway import SMSGateway
from repro.pam.framework import PAMStack
from repro.pam.modules.token import MFATokenModule
from repro.policy import PolicyEngine, RiskStage
from repro.radius.client import RADIUSClient
from repro.radius.server import RADIUSServer
from repro.radius.transport import UDPFabric
from repro.resolvers.chain import ResolverChain
from repro.ssh.daemon import SSHDaemon
from repro.storage import find_layer
from repro.storage.wal import WriteAheadLog
from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.trace import Tracer, _SpanContext

#: (span name, owner class, method) for every timed boundary.
TIMED = (
    ("ssh.connect", SSHDaemon, "connect"),
    ("pam.stack", PAMStack, "authenticate"),
    ("pam.unix_password", IdentityBackend, "check_password"),
    ("pam.token", MFATokenModule, "authenticate"),
    ("directory.ldap_search", LDAPDirectory, "search"),
    ("directory.ldap_modify", LDAPDirectory, "modify"),
    ("radius.client", RADIUSClient, "authenticate"),
    ("radius.server", RADIUSServer, "handle_datagram"),
    ("core.username_backend", UsernameResolvingBackend, "validate"),
    ("ingest.queue", QueuedBackend, "validate"),
    ("otpserver.validate", OTPServer, "validate"),
    ("otpserver.sms_send", SMSGateway, "send"),
    ("otpserver.admin_request", AdminAPI, "request"),
    ("authflow.pipeline", AuthPipeline, "run"),
    ("authflow.resolve_identity", ResolveIdentity, "run"),
    ("authflow.evaluate_policy", EvaluatePolicy, "run"),
    ("authflow.replay_guard", ReplayGuard, "run"),
    ("authflow.dispatch", DispatchByTokenType, "run"),
    ("authflow.apply_outcome", ApplyOutcome, "run"),
    ("authflow.audit", Audit, "run"),
    ("policy.evaluate", PolicyEngine, "evaluate"),
    ("policy.risk", RiskStage, "evaluate"),
    ("resolvers.resolve", ResolverChain, "resolve"),
    ("crypto.unseal", SecretSealer, "unseal"),
    ("crypto.seal", SecretSealer, "seal"),
    ("crypto.totp_check", TOTPValidator, "validate"),
)

#: (counter name, owner class, method) for counted-only boundaries.
COUNTED = (
    ("radius.datagram", UDPFabric, "send_request"),
    ("otpserver.audit_record", AuditLog, "record"),
    ("storage.wal_record", WriteAheadLog, "append"),
)

#: Registry instruments and span bookkeeping: timed into one bucket.
TELEMETRY = (
    (Counter, "inc"),
    (Gauge, "set"),
    (Gauge, "inc"),
    (Gauge, "dec"),
    (Histogram, "observe"),
    (Tracer, "span"),
    (_SpanContext, "__exit__"),
)

STORAGE_READS = ("get", "exists", "get_by_unique", "select", "count")
STORAGE_WRITES = ("insert", "update", "delete")

#: Per-layer metric -> (aggregate, span or counter, divisor).  ``self``
#: and ``total`` are calibrated microseconds per operation; ``calls`` and
#: ``count`` are per operation over the count window; ``per`` divides a
#: counter by the calls of another span.
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("ssh.connect_self_us", "self", "ssh.connect", ""),
    ("pam.stack_self_us", "self", "pam.stack", ""),
    ("pam.unix_password_us", "total", "pam.unix_password", ""),
    ("pam.token_self_us", "self", "pam.token", ""),
    ("directory.ldap_search_us", "total", "directory.ldap_search", ""),
    ("directory.ldap_search_calls_per_op", "calls", "directory.ldap_search", ""),
    ("directory.ldap_entries_examined_per_search", "per", "directory.ldap_examined", "directory.ldap_search"),
    ("directory.ldap_modify_us", "total", "directory.ldap_modify", ""),
    ("radius.client_self_us", "self", "radius.client", ""),
    ("radius.server_self_us", "self", "radius.server", ""),
    ("radius.datagrams_per_op", "count", "radius.datagram", ""),
    ("core.username_backend_self_us", "self", "core.username_backend", ""),
    ("ingest.queue_self_us", "self", "ingest.queue", ""),
    ("otpserver.validate_self_us", "self", "otpserver.validate", ""),
    ("otpserver.sms_send_us", "total", "otpserver.sms_send", ""),
    ("otpserver.admin_request_self_us", "self", "otpserver.admin_request", ""),
    ("otpserver.audit_records_per_op", "count", "otpserver.audit_record", ""),
    ("authflow.pipeline_self_us", "self", "authflow.pipeline", ""),
    ("authflow.resolve_identity_us", "total", "authflow.resolve_identity", ""),
    ("authflow.evaluate_policy_us", "total", "authflow.evaluate_policy", ""),
    ("authflow.replay_guard_us", "total", "authflow.replay_guard", ""),
    ("authflow.dispatch_us", "total", "authflow.dispatch", ""),
    ("authflow.apply_outcome_us", "total", "authflow.apply_outcome", ""),
    ("authflow.audit_us", "total", "authflow.audit", ""),
    ("policy.evaluate_us", "total", "policy.evaluate", ""),
    ("policy.risk_us", "total", "policy.risk", ""),
    ("resolvers.resolve_us", "total", "resolvers.resolve", ""),
    ("storage.read_us", "total", "storage.read", ""),
    ("storage.reads_per_op", "calls", "storage.read", ""),
    ("storage.write_us", "total", "storage.write", ""),
    ("storage.writes_per_op", "calls", "storage.write", ""),
    ("storage.wal_records_per_op", "count", "storage.wal_record", ""),
    ("crypto.unseal_us", "total", "crypto.unseal", ""),
    ("crypto.unseal_calls_per_op", "calls", "crypto.unseal", ""),
    ("crypto.hotp_per_check", "per", "crypto.hotp_in_check", "crypto.totp_check"),
    ("crypto.seal_us", "total", "crypto.seal", ""),
    ("telemetry.us_per_op", "total", "telemetry", ""),
)

#: Metrics read from the deployment at the end of the traced phase.
STATE_METRICS = (
    "otpserver.audit_retained",
    "resolvers.cache_hit_ratio",
    "storage.cache_hit_ratio",
)


def metric_unit(name: str) -> str:
    if name.endswith("_us") or name == "telemetry.us_per_op":
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class OpTrace:
    """Per-operation span totals (raw seconds) and call/counter counts."""

    __slots__ = ("op_id", "self_s", "total_s", "calls")

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)


class SpanRecorder:
    """Installs the wrappers, records spans, and computes per-layer figures."""

    def __init__(self, timer: Callable[[], float]) -> None:
        self.dep = None
        self.timer = timer
        self.origin = timer()
        self.spans: List[tuple] = []
        self.ops: List[OpRecord] = []
        self._op: Optional[OpTrace] = None
        self._stack: List[list] = []  # [name, child seconds, span index]
        self._restore: List[Callable[[], None]] = []

    # -- op boundaries (called by the Recorder) ----------------------------

    def begin(self, record: OpRecord) -> None:
        if record.trace is None:
            record.trace = OpTrace(len(self.ops))
            self.ops.append(record)
        self._op = record.trace

    def end(self) -> None:
        self._op = None
        self._stack.clear()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn: Callable) -> Callable:
        recorder, timer = self, self.timer
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            op = recorder._op
            if op is None:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [name, 0.0, index]
            stack.append(frame)
            started = timer()
            try:
                return fn(*args, **kwargs)
            finally:
                took = timer() - started
                stack.pop()
                if stack:
                    stack[-1][1] += took
                op.total_s[name] += took
                op.self_s[name] += took - frame[1]
                op.calls[name] += 1
                spans[index] = (op.op_id, name, parent, started - recorder.origin, took)

        return wrapper

    def _leaf(self, name: str, fn: Callable) -> Callable:
        """Timed into one bucket, no span record (too many to keep)."""
        recorder, timer, stack = self, self.timer, self._stack

        def wrapper(*args, **kwargs):
            op = recorder._op
            if op is None:
                return fn(*args, **kwargs)
            started = timer()
            try:
                return fn(*args, **kwargs)
            finally:
                took = timer() - started
                if stack:
                    stack[-1][1] += took
                op.total_s[name] += took
                op.calls[name] += 1

        return wrapper

    def _counted(self, name: str, fn: Callable, under: Optional[str] = None) -> Callable:
        recorder, stack = self, self._stack

        def wrapper(*args, **kwargs):
            op = recorder._op
            if op is not None and (under is None or (stack and stack[-1][0] == under)):
                op.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper_for: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (a class, module or instance attribute)."""
        original = getattr(owner, attr)
        own = isinstance(owner, (type, types.ModuleType)) and attr in vars(owner)
        setattr(owner, attr, wrapper_for(original))
        if own:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            self._restore.append(lambda: delattr(owner, attr))

    def install(self) -> None:
        """Wrap the classes and modules.  Done before the deployment is
        built, so bound methods it captures (the RADIUS servers' datagram
        handlers, the ingest queue's runner) are the wrapped ones."""
        for name, owner, attr in TIMED:
            self._patch(owner, attr, lambda fn, n=name: self._timed(n, fn))
        for name, owner, attr in COUNTED:
            self._patch(owner, attr, lambda fn, n=name: self._counted(n, fn))
        for owner, attr in TELEMETRY:
            self._patch(owner, attr, lambda fn: self._leaf("telemetry", fn))
        self._patch(
            totp_module, "hotp",
            lambda fn: self._counted("crypto.hotp_in_check", fn, under="crypto.totp_check"),
        )
        self._patch(ldap_module, "parse_filter", self._counting_filter)

    def attach(self, dep) -> None:
        """Wrap the deployment's outermost storage engine and note the
        state the per-layer ratios are taken against."""
        self.dep = dep
        engine = dep.center.otp.db.engine
        for attr in STORAGE_READS:
            self._patch(engine, attr, lambda fn: self._timed("storage.read", fn))
        for attr in STORAGE_WRITES:
            self._patch(engine, attr, lambda fn: self._timed("storage.write", fn))
        self._state_before = self._state()

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()
        self._state_after = self._state()

    def _counting_filter(self, parse: Callable) -> Callable:
        recorder = self

        def counting_parse(text):
            predicate = parse(text)
            op = recorder._op
            if op is None:
                return predicate

            def examined(entry):
                op.calls["directory.ldap_examined"] += 1
                return predicate(entry)

            return examined

        return counting_parse

    # -- deployment state around the traced phase --------------------------

    def _state(self) -> Dict[str, float]:
        center = self.dep.center
        state = {"audit": float(len(center.otp.audit))}
        chain = center.resolver_chain
        state["resolver_lookups"] = float(chain.lookups) if chain else 0.0
        state["resolver_hits"] = float(chain.cache_hits) if chain else 0.0
        cache = find_layer(center.otp.db.engine, "cache_info")
        info = cache.cache_info() if cache is not None else {"hits": 0, "misses": 0}
        state["cache_hits"] = float(info["hits"])
        state["cache_misses"] = float(info["misses"])
        return state

    # -- figures -----------------------------------------------------------

    def metrics(self, count_ops: int) -> Dict[str, float]:
        ops = self.ops
        n = len(ops)
        window = ops[:count_ops]
        out: Dict[str, float] = {}
        for metric, kind, key, divisor in LAYER_METRICS:
            if kind == "self":
                value = sum(r.trace.self_s.get(key, 0.0) * r.factor for r in ops) / n * 1e6
            elif kind == "total":
                value = sum(r.trace.total_s.get(key, 0.0) * r.factor for r in ops) / n * 1e6
            elif kind in ("calls", "count"):
                value = sum(r.trace.calls.get(key, 0) for r in window) / len(window)
            else:  # per
                calls = sum(r.trace.calls.get(divisor, 0) for r in window)
                value = sum(r.trace.calls.get(key, 0) for r in window) / calls if calls else 0.0
            out[metric] = value
        before, after = self._state_before, self._state_after
        out["otpserver.audit_retained"] = after["audit"]
        lookups = after["resolver_lookups"] - before["resolver_lookups"]
        hits = after["resolver_hits"] - before["resolver_hits"]
        out["resolvers.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        reads = (after["cache_hits"] - before["cache_hits"]) + (
            after["cache_misses"] - before["cache_misses"]
        )
        out["storage.cache_hit_ratio"] = (
            (after["cache_hits"] - before["cache_hits"]) / reads if reads else 0.0
        )
        return out

    def breakdown(self) -> List[Tuple[str, float, float]]:
        """(span, calibrated self us per op, share of op time) by self time."""
        ops = self.ops
        busy = sum(r.calibrated for r in ops)
        totals: Dict[str, float] = defaultdict(float)
        for r in ops:
            for name, value in r.trace.self_s.items():
                totals[name] += value * r.factor
            if "telemetry" in r.trace.total_s:
                totals["telemetry"] += r.trace.total_s["telemetry"] * r.factor
        rows = [(name, v / len(ops) * 1e6, v / busy if busy else 0.0) for name, v in totals.items()]
        covered = sum(v for v in totals.values())
        rows.append(("(benchmark + unwrapped)", (busy - covered) / len(ops) * 1e6,
                     (busy - covered) / busy if busy else 0.0))
        return sorted(rows, key=lambda row: -row[1])

    def dump(self, path: str, workload: str, seed: int) -> str:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {
            "workload": workload,
            "seed": seed,
            "span_fields": ["op", "name", "parent", "start_s", "duration_s"],
            "op_fields": ["op", "kind", "raw_s", "factor", "failed"],
            "ops": [
                [r.trace.op_id, r.kind, r.raw, r.factor, r.failed] for r in self.ops
            ],
            "spans": [s for s in self.spans if s is not None],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        return path

