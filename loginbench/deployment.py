"""Building the 10,000-account deployment every workload runs on.

The directory is planned from the seed first (who has which token and
which first factor, the passwords, the users' own SSH keys), outside any
timing.  :func:`build` then stands the deployment up through
``MFACenter``'s public functions, timed in chunks with a calibration
reference between chunks.  :func:`check_setup` compares the result with
the plan's own tally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from calibrate import Calibrator
from repro.common.clock import VirtualClock
from repro.core import MFACenter
from repro.directory.identity import PairingStatus
from repro.otpserver.admin_api import AdminAPI, AdminAPIClient
from repro.otpserver.sms_gateway import CarrierProfile
from repro.ssh.keys import KeyPair
from repro.storage import StorageConfig

ACCOUNTS = 10_000
#: Table 1 of the paper: soft 55.38%, SMS 40.22%, hard 1.43%, training
#: the rest, as exact counts over the directory.
TOKEN_MIX = (("soft", 5538), ("sms", 4022), ("hard", 143), ("training", 297))
#: 70% of accounts log in with password + token, 30% with public key + token.
PASSWORD_ACCOUNTS = 7_000
#: Fobs in the manufacturer batch loaded at set-up; the rest stay in
#: inventory.
HARD_BATCH = 200
#: Accounts built between two calibration references during set-up.
ACCOUNTS_PER_CHUNK = 50
START = "2017-06-05T09:00:00"
#: The portal's admin-API service account.
ADMIN_USER, ADMIN_PASSWORD = "portal-svc", "portal-svc-password"
#: A login node's address inside the system subnet the RADIUS farm trusts.
NAS_ADDRESS = "10.3.1.10"

#: Token kind -> the OTP server's token-type value and the directory's
#: pairing status.
TOKEN_TYPE = {"soft": "soft", "sms": "sms", "hard": "hard", "training": "static"}
PAIRING = {
    "soft": PairingStatus.SOFT,
    "sms": PairingStatus.SMS,
    "hard": PairingStatus.HARD,
    "training": PairingStatus.TRAINING,
}


@dataclass
class Account:
    """One planned account and the devices its user holds."""

    index: int
    username: str
    token: str
    password: Optional[str]
    key: Optional[KeyPair]
    phone: Optional[str] = None
    # Filled in as the deployment is built (what the user's device knows).
    uid: str = ""
    secret: Optional[bytes] = None
    static: Optional[str] = None
    #: Device clock offset from true time, seconds (0 until it drifts).
    skew: float = 0.0


@dataclass
class Plan:
    seed: int
    accounts: List[Account]

    def tally(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for account in self.accounts:
            counts[account.token] = counts.get(account.token, 0) + 1
        return counts


def make_plan(seed: int) -> Plan:
    """The directory's make-up, a function of ``seed`` alone."""
    rng = random.Random(f"plan-{seed}")
    tokens = [kind for kind, count in TOKEN_MIX for _ in range(count)]
    rng.shuffle(tokens)
    first = ["password"] * PASSWORD_ACCOUNTS + ["publickey"] * (
        ACCOUNTS - PASSWORD_ACCOUNTS
    )
    rng.shuffle(first)
    accounts = []
    for index in range(ACCOUNTS):
        username = f"u{index:05d}"
        password = key = None
        if first[index] == "password":
            password = f"{rng.getrandbits(48):012x}"
        else:
            key = KeyPair(rng.getrandbits(256).to_bytes(32, "big"), username)
        phone = f"512{index:07d}" if tokens[index] == "sms" else None
        accounts.append(Account(index, username, tokens[index], password, key, phone))
    return Plan(seed, accounts)


@dataclass
class Deployment:
    """A built deployment and the users' side of it."""

    plan: Plan
    center: MFACenter
    clock: VirtualClock
    system: object
    radius: object
    admin: Optional[AdminAPIClient]
    full_stack: bool
    setup_raw_s: float
    setup_s: float
    #: Current pairings by token kind, as the benchmark tallies them.
    tally: Dict[str, int] = field(default_factory=dict)

    @property
    def accounts(self) -> List[Account]:
        return self.plan.accounts


class _Chunk:
    __slots__ = ("raw", "factor")

    def __init__(self, raw: float) -> None:
        self.raw = raw
        self.factor = float("nan")


def _center(seed: int, full_stack: bool) -> MFACenter:
    clock = VirtualClock.at(START)
    rng = random.Random(f"center-{seed}")
    if full_stack:
        center = MFACenter(
            clock=clock,
            rng=rng,
            telemetry=True,
            risk=True,
            resolvers=True,
            ingest=True,
            storage=StorageConfig(shards=4, replicas=2, cache_capacity=2048),
        )
    else:
        center = MFACenter(clock=clock, rng=rng)
    # A stall-free carrier that delivers at once: no operation waits on
    # (or fails for) a late text.
    center.sms_gateway.carrier = CarrierProfile(
        base_delay=0.0, delay_jitter=0.0, stall_probability=0.0
    )
    return center


def _pair(center: MFACenter, account: Account, serial: Optional[str], batch) -> None:
    username = account.username
    if account.token == "soft":
        _, account.secret = center.pair_soft(username)
    elif account.token == "sms":
        center.pair_sms(username, account.phone)
    elif account.token == "hard":
        center.pair_hard(username, serial)
        account.secret = batch.secret_for(serial)
    else:
        account.static = center.pair_training(username)


def build(plan: Plan, full_stack: bool, cal: Calibrator) -> Deployment:
    """Stand the deployment up; ``cal`` must hold a first reference."""
    timer = cal.timer
    chunks: List[_Chunk] = []
    for account in plan.accounts:
        account.skew = 0.0
        account.secret = account.static = None

    started = timer()
    center = _center(plan.seed, full_stack)
    system = center.add_system("stampede")
    batch = center.receive_hard_batch(HARD_BATCH)
    serials = iter(batch.serials())
    radius = center.new_radius_client(NAS_ADDRESS)
    admin = None
    if full_stack:
        api = AdminAPI(center.otp, rng=random.Random(f"admin-{plan.seed}"))
        api.add_admin(ADMIN_USER, ADMIN_PASSWORD)
        admin = AdminAPIClient(
            api, ADMIN_USER, ADMIN_PASSWORD, rng=random.Random(f"portal-{plan.seed}")
        )
    chunks.append(_Chunk(timer() - started))
    cal.track(chunks[-1])
    cal.reference()

    accounts = plan.accounts
    for low in range(0, len(accounts), ACCOUNTS_PER_CHUNK):
        started = timer()
        for account in accounts[low : low + ACCOUNTS_PER_CHUNK]:
            record = center.create_user(account.username, password=account.password or "")
            account.uid = record.uid
            serial = next(serials) if account.token == "hard" else None
            _pair(center, account, serial, batch)
            if account.key is not None:
                for daemon in system.daemons:
                    daemon.authorize_key(account.username, account.key)
        chunks.append(_Chunk(timer() - started))
        cal.track(chunks[-1])
        cal.reference()

    return Deployment(
        plan=plan,
        center=center,
        clock=center.clock,
        system=system,
        radius=radius,
        admin=admin,
        full_stack=full_stack,
        setup_raw_s=sum(c.raw for c in chunks),
        setup_s=sum(c.raw * c.factor for c in chunks),
        tally=plan.tally(),
    )


def expected_breakdown(tally: Dict[str, int]) -> Dict[str, float]:
    """Table-1 percentages over paired users, from a tally."""
    total = sum(tally.values())
    return {PAIRING[kind].value: 100.0 * n / total for kind, n in tally.items() if n}


def check_tally(dep: Deployment) -> List[str]:
    """Directory size and pairing tallies against the benchmark's own."""
    problems = []
    center = dep.center
    if len(center.identity) != ACCOUNTS:
        problems.append(f"directory holds {len(center.identity)} accounts, not {ACCOUNTS}")
    if len(center.identity.ldap) != ACCOUNTS:
        problems.append(f"LDAP holds {len(center.identity.ldap)} entries, not {ACCOUNTS}")
    want_types = {TOKEN_TYPE[kind]: n for kind, n in dep.tally.items() if n}
    got_types = center.otp.token_count_by_type()
    if got_types != want_types:
        problems.append(f"token_count_by_type() {got_types} != tally {want_types}")
    want = expected_breakdown(dep.tally)
    got = center.pairing_breakdown()
    if set(got) != set(want) or any(abs(got[k] - want[k]) > 1e-9 for k in want):
        problems.append(f"pairing_breakdown() {got} != tally {want}")
    return problems
