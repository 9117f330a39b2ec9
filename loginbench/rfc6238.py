"""RFC 4226 / RFC 6238 one-time codes, computed apart from ``repro.crypto``.

Every soft and hard device code the benchmark submits comes from here, so
"the server accepted the code" is checked against a computation that
shares no code with the server's validator.  Only ``hmac``, ``hashlib``
and ``struct`` are used.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

_DIGESTS = {"sha1": hashlib.sha1, "sha256": hashlib.sha256, "sha512": hashlib.sha512}


def hotp(secret: bytes, counter: int, digits: int = 6, algorithm: str = "sha1") -> str:
    """The RFC 4226 value for ``counter`` (dynamic truncation, section 5.3)."""
    mac = hmac.new(secret, struct.pack(">Q", counter), _DIGESTS[algorithm]).digest()
    offset = mac[-1] & 0x0F
    (word,) = struct.unpack(">I", mac[offset : offset + 4])
    return str((word & 0x7FFFFFFF) % 10**digits).zfill(digits)


def totp(
    secret: bytes,
    unix_time: float,
    step: int = 30,
    digits: int = 6,
    algorithm: str = "sha1",
) -> str:
    """The RFC 6238 value at ``unix_time`` (T0 = 0)."""
    return hotp(secret, int(unix_time // step), digits, algorithm)
