"""The benchmark's own code generator against the RFCs' test vectors."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import rfc6238  # noqa: E402

# RFC 6238 Appendix B: 8-digit TOTP, step 30 s, T0 = 0.
SEEDS = {
    "sha1": b"12345678901234567890",
    "sha256": b"12345678901234567890123456789012",
    "sha512": b"1234567890123456789012345678901234567890123456789012345678901234",
}
VECTORS = [
    (59, "94287082", "46119246", "90693936"),
    (1111111109, "07081804", "68084774", "25091201"),
    (1111111111, "14050471", "67062674", "99943326"),
    (1234567890, "89005924", "91819424", "93441116"),
    (2000000000, "69279037", "90698825", "38618901"),
    (20000000000, "65353130", "77737706", "47863826"),
]


@pytest.mark.parametrize("unix_time,sha1,sha256,sha512", VECTORS)
def test_rfc6238_appendix_b(unix_time, sha1, sha256, sha512):
    for algorithm, want in (("sha1", sha1), ("sha256", sha256), ("sha512", sha512)):
        assert rfc6238.totp(SEEDS[algorithm], unix_time, digits=8, algorithm=algorithm) == want


def test_rfc4226_appendix_d():
    want = ["755224", "287082", "359152", "969429", "338314",
            "254676", "287922", "162583", "399871", "520489"]
    assert [rfc6238.hotp(SEEDS["sha1"], c) for c in range(10)] == want


def test_six_digit_codes_are_the_low_digits():
    assert rfc6238.totp(SEEDS["sha1"], 59) == "287082"
    assert rfc6238.totp(SEEDS["sha1"], 60) == rfc6238.hotp(SEEDS["sha1"], 2)
