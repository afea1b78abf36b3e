"""RSA key generation, signing and verification.

The paper's prototype signs every outgoing packet and acknowledgment with a
768-bit RSA key (Section 6.2).  We implement hash-then-sign RSA with a simple
full-domain-hash-style padding: the SHA-256 digest of the message is expanded
with counter-mode hashing to the modulus size and signed with the private
exponent.  This is adequate for the reproduction's purpose (non-repudiation
among simulated parties and a realistic cost model), and the key size is
configurable so experiments can compare RSA-768 against larger keys.

The encoding, CRT signing and seeded key generation are written from scratch;
each modular exponentiation is libcrypto's (:mod:`repro.crypto.modexp`),
byte-identical to ``pow``.  A seeded key pair is generated once per process and
memoised (at most :data:`KEY_MEMO_BOUND` of them); an unseeded one never is.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass

from repro.crypto import hashing
from repro.crypto.modexp import modexp
from repro.crypto.primes import generate_prime
from repro.errors import KeyGenerationError, SignatureError

_PUBLIC_EXPONENT = 65537

#: Seeded key pairs kept, least recently used evicted; the full adversary
#: matrix, the largest run, makes 283 distinct ones.
KEY_MEMO_BOUND = 512

#: the fixed length-framing bytes of ``hash_concat(digest, counter)`` —
#: ``encode_digest`` runs once per signature on the audit hot path, so each
#: expansion block is hashed in a single one-shot call over the identical
#: byte stream instead of through the generic framing helper.
_DIGEST_FRAME = (32).to_bytes(8, "big")
_COUNTER_FRAME = (8).to_bytes(8, "big")


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    modulus: int
    exponent: int
    bits: int

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return ``True`` if ``signature`` is a valid signature of ``message``."""
        if len(signature) != self.byte_length():
            return False
        sig_int = int.from_bytes(signature, "big")
        if sig_int >= self.modulus:
            return False
        recovered = modexp(sig_int, self.exponent, self.modulus)
        expected = encode_digest(message, self.modulus)
        return recovered == expected

    def byte_length(self) -> int:
        """Size of signatures produced under this key, in bytes."""
        return (self.modulus.bit_length() + 7) // 8

    def fingerprint(self) -> str:
        """Short stable identifier for the key (first 16 hex chars of its hash)."""
        material = f"{self.modulus:x}:{self.exponent:x}".encode("ascii")
        return hashing.hash_hex(material)[:16]


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key; carries the matching public key and its factors.

    Signing uses the CRT decomposition: two half-size exponentiations plus a
    Garner recombination, byte-identical to ``pow(m, d, n)``.
    """

    modulus: int
    exponent: int  # private exponent d
    public: RsaPublicKey
    prime_p: int
    prime_q: int
    exponent_dp: int  # d mod (p-1)
    exponent_dq: int  # d mod (q-1)
    q_inverse: int    # q^-1 mod p

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` (hash-then-sign)."""
        digest_int = encode_digest(message, self.modulus)
        sig_p = modexp(digest_int, self.exponent_dp, self.prime_p)
        sig_q = modexp(digest_int, self.exponent_dq, self.prime_q)
        # Garner recombination: sig = sig_q + q * ((sig_p - sig_q) / q mod p)
        sig_int = sig_q + self.prime_q * (
            ((sig_p - sig_q) * self.q_inverse) % self.prime_p)
        return sig_int.to_bytes(self.public.byte_length(), "big")


def generate_keypair(bits: int, seed: int | None = None) -> RsaPrivateKey:
    """Generate an RSA key pair with a modulus of roughly ``bits`` bits.

    ``seed`` makes generation deterministic, which the experiment harness uses
    so repeated runs produce identical logs and signatures.  A seeded pair is
    searched for once per process and then returned from a bounded memo keyed
    by ``(bits, seed)``; ``seed=None`` always draws a fresh pair.
    """
    if seed is None:
        return _search_keypair(bits, None)
    return _seeded_keypairs(bits, seed)


def _search_keypair(bits: int, seed: int | None) -> RsaPrivateKey:
    if bits < 256:
        raise KeyGenerationError(f"RSA modulus too small: {bits} bits")
    rng = random.Random(seed)
    half = bits // 2
    for _ in range(64):
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        try:
            d = pow(_PUBLIC_EXPONENT, -1, phi)
        except ValueError:
            continue  # e not invertible mod phi; try new primes
        public = RsaPublicKey(modulus=n, exponent=_PUBLIC_EXPONENT, bits=bits)
        return RsaPrivateKey(
            modulus=n, exponent=d, public=public,
            prime_p=p, prime_q=q,
            exponent_dp=d % (p - 1), exponent_dq=d % (q - 1),
            q_inverse=pow(q, -1, p))
    raise KeyGenerationError("failed to generate an RSA key pair")


#: ``typed``: equal seeds of two types can seed ``random.Random`` differently
#: (``-1`` and ``-1.0``), so each type gets entries of its own.
_seeded_keypairs = functools.lru_cache(maxsize=KEY_MEMO_BOUND, typed=True)(_search_keypair)


def encode_digest(message: bytes, modulus: int) -> int:
    """Expand SHA-256(message) to an integer smaller than ``modulus``.

    Counter-mode expansion of the digest gives a full-domain-hash-style
    encoding; the top byte is cleared so the value is always below the
    modulus.  A signature ``s`` of ``message`` is valid exactly when
    ``s^e mod n`` equals this value (:meth:`RsaPublicKey.verify`).
    """
    target_len = (modulus.bit_length() + 7) // 8
    digest = hashing.hash_bytes(message)
    # Byte-for-byte identical to hash_concat(digest, encode_int(counter)),
    # collapsed into one hash call per block: stored signatures were made
    # under this exact encoding, so only the computation may change.
    head = _DIGEST_FRAME + digest + _COUNTER_FRAME
    blocks = []
    for counter in range((target_len + 31) // 32):
        blocks.append(
            hashlib.sha256(head + counter.to_bytes(8, "big")).digest())
    expanded = b"".join(blocks)[:target_len]
    expanded = b"\x00" + expanded[1:]  # ensure value < modulus
    value = int.from_bytes(expanded, "big")
    if value >= modulus:
        raise SignatureError("digest encoding exceeded modulus")  # pragma: no cover
    return value
