"""The three workloads: their op mixes, user draws and output checks.

Each workload is a closed loop with one client: the next operation
starts when the previous one has finished.  A workload runs in whole
*rounds* of a fixed op mix, so the share of failed operations is the
same in every run.  User draws and device state come from the seed; the
program under test only ever sees the generated requests.

Every accepted soft or hard code is computed by :mod:`rfc6238`, apart
from ``repro.crypto``; SMS codes are read from the text the simulated
carrier delivered.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import random
import re
from typing import Callable, List, Optional

import rfc6238
from deployment import ACCOUNTS, PAIRING, Account, Deployment, check_tally
from ops import Recorder
from repro.radius.client import AuthStatus
from repro.ssh.client import SSHClient

_SMS_CODE = re.compile(r"(\d{6})\s*$")

#: The reply the admin API gives while the known fault holds: with a
#: resolver chain attached, ``/validate/check`` resolves the portal's
#: uid as a *username* and finds nobody.
KNOWN_FAULT = ("no_token", "unknown user")


def device_code(dep: Deployment, account: Account) -> str:
    """What a soft/hard device or a training sheet shows right now."""
    if account.token == "training":
        return account.static
    return rfc6238.totp(account.secret, dep.clock.now() + account.skew)


def sms_code(dep: Deployment, phone: str, since: float) -> Optional[str]:
    """The code in the newest text delivered to ``phone`` since ``since``."""
    message = dep.center.sms_gateway.latest(phone)
    if message is None or message.sent_at < since:
        return None
    match = _SMS_CODE.search(message.body)
    return match.group(1) if match else None


def wrong_codes(dep: Deployment, account: Account, rng: random.Random, n: int) -> List[str]:
    """``n`` codes the server must reject: none matches any step the
    validator could search, whether centred on true or on device time."""
    now = dep.clock.now()
    taken = set()
    if account.token == "training":
        taken.add(account.static)
    elif account.secret is not None:
        for base in (now, now + account.skew):
            for k in range(-12, 13):
                taken.add(rfc6238.totp(account.secret, base + 30 * k))
    codes: List[str] = []
    while len(codes) < n:
        code = f"{rng.randrange(10**6):06d}"
        if code not in taken and code not in codes:
            codes.append(code)
    return codes


def popularity_ranking(accounts: List[Account], rng: random.Random) -> List[Account]:
    """A seeded popularity ranking whose token kind by rank is fixed.

    Rank positions go to token kinds in the directory's proportions
    (each position to the kind furthest behind its share), the same for
    every seed; the seed picks which user of that kind holds each
    position.  So a Zipf draw sees the same token mix whatever the seed,
    and only the users differ.
    """
    pools: dict = {}
    for account in accounts:
        pools.setdefault(account.token, []).append(account)
    for pool in pools.values():
        rng.shuffle(pool)
    kinds = sorted(pools)
    total = len(accounts)
    taken = dict.fromkeys(kinds, 0)
    ranked = []
    for position in range(1, total + 1):
        kind = max(kinds, key=lambda k: len(pools[k]) * position / total - taken[k])
        ranked.append(pools[kind][taken[kind]])
        taken[kind] += 1
    return ranked


class Workload:
    name = ""
    full_stack = True
    #: Top-level operations between two calibration references.
    ref_every = 1
    #: Rounds at the start of a traced run over which the per-op counts
    #: are taken (a fixed, seed-determined op sequence).
    count_rounds = 10
    warmup_rounds = 2
    round_size = 0  # records per round
    #: Rounds after which ``peak_rss_mb`` is read (well within what the
    #: slower phase of the machine the benchmark was written on completes
    #: in a 16 s run).
    rss_rounds = 1
    #: Rounds a measured run completes at least, however slow the host:
    #: 1,000 timed operations, so ten samples lie beyond the p99.
    min_rounds = 1
    #: Operation kinds that hold a known fault: counted, never timed.
    untimed_kinds: tuple = ()
    #: Calibrate the operations with :class:`calibrate.ScanReference`
    #: instead of :func:`calibrate.reference_unit`: for a workload whose
    #: time is a scan over the whole directory.
    scan_reference = False

    def __init__(self, dep: Deployment, seed: int) -> None:
        self.dep = dep
        self.rng = random.Random(f"{self.name}-{seed}")
        #: Account index -> the TOTP step of its latest login.
        self._last_step: dict = {}

    def round(self, rec: Recorder) -> None:
        raise NotImplementedError

    def final_checks(self) -> List[str]:
        return []

    # -- user draws: never the same user twice in one TOTP step -------------

    def _mark(self, account: Account) -> None:
        """Note that ``account`` logs in during the current TOTP step."""
        self._last_step[account.index] = int(self.dep.clock.now() // 30)

    def _draw(self, pick: Callable[[], Account]) -> Account:
        step = int(self.dep.clock.now() // 30)
        while True:
            account = pick()
            if self._last_step.get(account.index) != step:
                self._mark(account)
                return account

    def _uniform(self, kinds=None) -> Account:
        accounts = self.dep.accounts
        rng = self.rng

        def pick() -> Account:
            while True:
                account = accounts[rng.randrange(ACCOUNTS)]
                if kinds is None or account.token in kinds:
                    return account

        return self._draw(pick)

    # -- RADIUS logins from the login node ------------------------------------

    def radius_login(self, account: Account, code: Optional[str]):
        """One user's complete RADIUS authentication (two trips for SMS).

        Returns the final response and the code that was accepted or
        refused.
        """
        dep = self.dep
        if account.token != "sms":
            return dep.radius.authenticate(account.username, code), code
        since = dep.clock.now()
        first = dep.radius.authenticate(account.username, "")
        if first.status is not AuthStatus.CHALLENGE:
            return first, None
        sent = sms_code(dep, account.phone, since)
        return dep.radius.authenticate(account.username, sent or "", state=first.state), sent


class SSHLogin(Workload):
    """Full interactive logins through sshd, PAM, RADIUS and the OTP server."""

    name = "ssh_login_10k"
    full_stack = False
    ref_every = 1
    count_rounds = 10
    round_size = 10
    rss_rounds = 40
    min_rounds = 100
    #: 93% of a login is ``LDAPDirectory.search`` evaluating its filter on
    #: all 10,000 entries.
    scan_reference = True
    #: Virtual seconds between two logins.
    PACING = 31.0

    def __init__(self, dep: Deployment, seed: int) -> None:
        super().__init__(dep, seed)
        self.client = SSHClient("198.51.100.23")
        self._node = itertools.cycle(dep.system.daemons)

    def round(self, rec: Recorder) -> None:
        for _ in range(self.round_size):
            self._login(rec)
            rec.after_op()

    def _login(self, rec: Recorder) -> None:
        dep = self.dep
        account = dep.accounts[self.rng.randrange(ACCOUNTS)]
        dep.clock.advance(self.PACING)
        since = dep.clock.now()
        if account.token == "sms":
            token = lambda: sms_code(dep, account.phone, since) or ""  # noqa: E731
        else:
            token = device_code(dep, account)
        daemon = next(self._node)
        with rec.op(f"login_{account.token}") as op:
            result, _ = self.client.connect(
                daemon,
                account.username,
                password=account.password,
                key=account.key,
                token=token,
            )
        if op.failed:
            return
        if not result.success:
            op.fail(f"login refused: {result.detail}")
            return
        opened = dep.system.authlog.recent(1.0, "session_open", account.username)
        if len(opened) != 1 or "mfa=yes" not in opened[0].detail:
            op.fail("no session_open with mfa=yes in the auth log")


class RadiusAuth(Workload):
    """Access-Requests from a login node's RADIUS client into the farm."""

    name = "radius_auth_10k"
    ref_every = 16
    count_rounds = 20
    rss_rounds = 400
    min_rounds = 40
    #: 24 logins then one replay probe.
    LOGINS_PER_ROUND = 24
    round_size = LOGINS_PER_ROUND + 1
    #: About 20 logins per virtual second.
    PACING = 0.05

    def __init__(self, dep: Deployment, seed: int) -> None:
        super().__init__(dep, seed)
        self._ranked = popularity_ranking(dep.accounts, self.rng)
        self._cumulative = list(itertools.accumulate(1.0 / k for k in range(1, ACCOUNTS + 1)))
        #: Newest accepted device codes: (account, code, TOTP step).
        self._accepted: collections.deque = collections.deque(maxlen=8)

    def _zipf(self) -> Account:
        rng, cumulative = self.rng, self._cumulative

        def pick() -> Account:
            index = bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
            return self._ranked[min(index, ACCOUNTS - 1)]

        return self._draw(pick)

    def round(self, rec: Recorder) -> None:
        for _ in range(self.LOGINS_PER_ROUND):
            self._login(rec)
            rec.after_op()
        self._replay(rec)
        rec.after_op()

    def _login(self, rec: Recorder) -> None:
        dep = self.dep
        dep.clock.advance(self.PACING)
        account = self._zipf()
        code = None if account.token == "sms" else device_code(dep, account)
        with rec.op(f"auth_{account.token}") as op:
            response, code = self.radius_login(account, code)
        if op.failed:
            return
        if response.status is not AuthStatus.ACCEPT:
            op.fail(f"correct code refused: {response.status.value} {response.message}")
        elif account.token in ("soft", "hard"):
            self._accepted.append((account, code, int(dep.clock.now() // 30)))

    def _replay_target(self):
        """The newest accepted code that no later step in the drift window
        repeats.  A code that does (about 1 in 10^5) is accepted again by
        the validator, which takes it for the later step; that fault is
        reported apart and kept out of the probes."""
        now_step = int(self.dep.clock.now() // 30)
        for account, code, step in reversed(self._accepted):
            later = {rfc6238.hotp(account.secret, s) for s in range(step + 1, now_step + 11)}
            if code not in later:
                return account, code
        return self._accepted[-1][:2]

    def _replay(self, rec: Recorder) -> None:
        """Resubmit a recently accepted device code: it must be refused."""
        dep = self.dep
        dep.clock.advance(self.PACING)
        account, code = self._replay_target()
        with rec.op("replay_probe") as op:
            response = dep.radius.authenticate(account.username, code)
        if not op.failed and response.status is AuthStatus.ACCEPT:
            op.fail("replayed code accepted")


class EnrollChurn(Workload):
    """Re-pairing, typo bursts and resyncs: the write side of every layer."""

    name = "enroll_churn_10k"
    ref_every = 4
    count_rounds = 30
    rss_rounds = 1000
    #: repair + repair_confirm + typo_burst + resync.
    round_size = 4
    min_rounds = 334
    untimed_kinds = ("repair_confirm",)
    PACING = 0.05

    def __init__(self, dep: Deployment, seed: int) -> None:
        super().__init__(dep, seed)
        self._phones = itertools.count()

    def round(self, rec: Recorder) -> None:
        for step in (self._repair, self._typo_burst, self._resync):
            self.dep.clock.advance(self.PACING)
            step(rec)
            rec.after_op()

    def final_checks(self) -> List[str]:
        return check_tally(self.dep)

    def _admin(self, method: str, path: str, params: dict) -> dict:
        return self.dep.admin.call(method, path, params)

    def _repair(self, rec: Recorder) -> None:
        """Replace the user's device exactly as the portal does."""
        dep = self.dep
        account = self._uniform(("soft", "sms"))
        uid = account.uid
        trigger = None
        with rec.op("repair") as op:
            self._admin("POST", "/admin/remove", {"user": uid})
            if account.token == "soft":
                body = self._admin("POST", "/admin/init", {"user": uid, "type": "soft"})
            else:
                phone = f"737{next(self._phones):07d}"
                since = dep.clock.now()
                self._admin(
                    "POST", "/admin/init", {"user": uid, "type": "sms", "phone": phone}
                )
                # "The portal then triggers the LinOTP server to send a token code."
                trigger = self._admin("POST", "/validate/check", {"user": uid})
        if op.failed:
            return
        # The user now holds the new device.
        if account.token == "soft":
            account.secret, account.skew = bytes.fromhex(body["otpkey"]), 0.0
            code = device_code(dep, account)
        else:
            account.phone = phone
            code = sms_code(dep, phone, since)
        self._confirm(rec, account, code, trigger)
        with rec.more(op):
            dep.center.identity.notify_pairing(account.username, PAIRING[account.token])
        # The first login comes a step later than the confirmation.
        dep.clock.advance(30.0)
        self._mark(account)
        code = None if account.token == "sms" else device_code(dep, account)
        with rec.more(op):
            response, _ = self.radius_login(account, code)
        if not op.failed and response.status is not AuthStatus.ACCEPT:
            op.fail(f"first login with the new device refused: {response.message}")

    def _confirm(self, rec: Recorder, account: Account, code, trigger) -> None:
        """The pairing confirmation ``/validate/check`` with the first code."""
        with rec.op("repair_confirm") as op:
            body = None
            if code is not None:
                body = self._admin(
                    "POST", "/validate/check", {"user": account.uid, "pass": code}
                )
        if op.failed:
            return
        if body is None:
            answer = (trigger["status"], trigger["message"])
            op.fail(
                f"no text reached the new phone (trigger answered {answer[0]}: {answer[1]})",
                expected=answer == KNOWN_FAULT,
            )
        elif body["status"] != "ok":
            answer = (body["status"], body["message"])
            op.fail(f"{answer[0]}: {answer[1]}", expected=answer == KNOWN_FAULT)

    def _typo_burst(self, rec: Recorder) -> None:
        """Three wrong codes, failcount read-back, reset, correct login."""
        dep = self.dep
        account = self._uniform()
        # One spare: an SMS code is only known once sent, and a typo must
        # not happen to equal it.
        wrong = wrong_codes(dep, account, self.rng, 4)
        code = None if account.token == "sms" else device_code(dep, account)
        since = dep.clock.now()
        refused, shown = [], None
        with rec.op("typo_burst") as op:
            state = None
            if account.token == "sms":
                first = dep.radius.authenticate(account.username, "")
                state = first.state
                code = sms_code(dep, account.phone, since) or ""
            for typo in [c for c in wrong if c != code][:3]:
                refused.append(dep.radius.authenticate(account.username, typo, state=state))
            shown = self._admin("GET", "/admin/show", {"user": account.uid})
            self._admin("POST", "/admin/reset", {"user": account.uid})
            final = dep.radius.authenticate(account.username, code, state=state)
        if op.failed:
            return
        if any(r.status is not AuthStatus.REJECT for r in refused):
            op.fail("a wrong code was not refused")
            return
        counts = [t["failcount"] for t in shown["tokens"]]
        if counts != [3]:
            op.fail(f"failcount after three wrong codes reads {counts}, not [3]")
            return
        if final.status is not AuthStatus.ACCEPT:
            op.fail(f"correct {account.token} code after reset refused: {final.message}")
            return
        after = self._admin("GET", "/admin/show", {"user": account.uid})
        if [t["failcount"] for t in after["tokens"]] != [0]:
            op.fail("failcount not back to 0 after reset and a correct login")

    def _resync(self, rec: Recorder) -> None:
        """Resync a device drifted past the window, then log in at its time."""
        dep = self.dep
        account = self._uniform(("soft", "hard"))
        steps = round(account.skew / 30)
        delta = self.rng.randint(15, 40) * self.rng.choice((-1, 1))
        if abs(steps + delta) > 400:
            delta = -delta
        account.skew = 30.0 * (steps + delta)
        first = device_code(dep, account)
        dep.clock.advance(30.0)  # the user waits for the next code
        second = device_code(dep, account)
        with rec.op("resync") as op:
            body = self._admin(
                "POST", "/admin/resync", {"user": account.uid, "otp1": first, "otp2": second}
            )
        if op.failed:
            return
        dep.clock.advance(30.0)
        self._mark(account)
        code = device_code(dep, account)
        with rec.more(op):
            response, _ = self.radius_login(account, code)
        if op.failed:
            return
        if not body.get("resynced"):
            op.fail("resync with two consecutive drifted codes refused")
        elif response.status is not AuthStatus.ACCEPT:
            op.fail(f"resynced device refused at its drifted time: {response.message}")


WORKLOADS = {w.name: w for w in (SSHLogin, RadiusAuth, EnrollChurn)}
