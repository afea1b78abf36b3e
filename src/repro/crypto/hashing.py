"""Hashing helpers.

The tamper-evident log (Section 4.3 of the paper) computes

    h_i = H(h_{i-1} || s_i || t_i || H(c_i))

where ``H`` is a hash function that is pre-image, second-pre-image and
collision resistant.  We use SHA-256 throughout and canonical byte encodings
for the non-byte fields so the chain value is stable across processes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

HASH_SIZE_BYTES = 32
ZERO_HASH = b"\x00" * HASH_SIZE_BYTES


def hash_bytes(data: bytes) -> bytes:
    """SHA-256 of ``data``."""
    return hashlib.sha256(data).digest()


def hash_hex(data: bytes) -> str:
    """SHA-256 of ``data`` as a hex string (used in reports and evidence)."""
    return hashlib.sha256(data).hexdigest()


def hash_concat(*parts: bytes) -> bytes:
    """Hash the concatenation of byte strings with length framing.

    Plain concatenation is ambiguous (``a || bc == ab || c``); every part is
    therefore prefixed with its 8-byte big-endian length before hashing.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.digest()


def encode_int(value: int) -> bytes:
    """Encode a non-negative integer as 8 big-endian bytes."""
    return int(value).to_bytes(8, "big")


def hash_object(obj: Any) -> bytes:
    """Hash an arbitrary JSON-serialisable object canonically.

    Used for structured payloads (game state digests, snapshot metadata)
    where a stable, order-independent encoding matters.
    """
    encoded = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hash_bytes(encoded)
