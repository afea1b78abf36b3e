"""Pluggable signature schemes.

The evaluation compares configurations that differ only in how packets are
signed:

* ``avmm-rsa768`` — 768-bit RSA on every packet and acknowledgment;
* ``avmm-nosig``  — the AVMM machinery without signatures;

:func:`get_scheme` returns a :class:`SignatureScheme` by name.  Every scheme
reports a *cost model* (seconds to sign/verify) used by the performance model;
the RSA scheme actually performs modular exponentiation; the null scheme
only reports a zero cost, for the configurations that do not sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.errors import SignatureError


@dataclass(frozen=True)
class SchemeCosts:
    """Per-operation latency (seconds) charged by the performance model."""

    sign_seconds: float
    verify_seconds: float
    signature_bytes: int


class SignatureScheme:
    """Interface every signature scheme implements."""

    name: str = "abstract"

    def generate(self, identity: str, seed: Optional[int] = None) -> "SigningKey":
        """Create a signing key for ``identity``."""
        raise NotImplementedError

    def costs(self) -> SchemeCosts:
        """Return the scheme's cost model."""
        raise NotImplementedError


@dataclass
class SigningKey:
    """A private signing key bound to an identity, plus its verification key."""

    identity: str
    scheme_name: str
    _private: object
    verify_key: "VerifyKey"

    def sign(self, message: bytes) -> bytes:
        raise NotImplementedError


@dataclass(frozen=True)
class VerifyKey:
    """A public verification key bound to an identity."""

    identity: str
    scheme_name: str

    def verify(self, message: bytes, signature: bytes) -> bool:
        raise NotImplementedError

    def fingerprint(self) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# RSA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RsaVerifyKey(VerifyKey):
    public: RsaPublicKey = None  # type: ignore[assignment]

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self.public.verify(message, signature)

    def fingerprint(self) -> str:
        return self.public.fingerprint()


@dataclass
class RsaSigningKey(SigningKey):
    def sign(self, message: bytes) -> bytes:
        private: RsaPrivateKey = self._private  # type: ignore[assignment]
        return private.sign(message)


class RsaScheme(SignatureScheme):
    """Real RSA signatures at a configurable key size."""

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.name = f"rsa{bits}"

    def generate(self, identity: str, seed: Optional[int] = None) -> RsaSigningKey:
        private = generate_keypair(self.bits, seed=seed)
        verify = RsaVerifyKey(identity=identity, scheme_name=self.name,
                              public=private.public)
        return RsaSigningKey(identity=identity, scheme_name=self.name,
                             _private=private, verify_key=verify)

    def costs(self) -> SchemeCosts:
        # Calibrated against the paper's setup: RSA-768 sign+verify for four
        # signatures accounts for most of the ~5 ms ping RTT (Section 6.8),
        # i.e. roughly 1 ms to sign, ~50 us to verify on the 2010-era testbed.
        scale = (self.bits / 768.0) ** 3  # signing is ~cubic in modulus size
        return SchemeCosts(sign_seconds=1.0e-3 * scale,
                           verify_seconds=5.0e-5 * (self.bits / 768.0) ** 2,
                           signature_bytes=self.bits // 8)


class NullScheme(SignatureScheme):
    """No signatures at all — the ``avmm-nosig`` configuration."""

    name = "nosig"

    def costs(self) -> SchemeCosts:
        return SchemeCosts(sign_seconds=0.0, verify_seconds=0.0, signature_bytes=0)


_SCHEMES: Dict[str, SignatureScheme] = {}


def get_scheme(name: str) -> SignatureScheme:
    """Return the signature scheme registered under ``name``.

    Recognised names: ``rsa768``, ``rsa1024``, ``rsa2048``, ``nosig``.
    """
    if name not in _SCHEMES:
        if name.startswith("rsa"):
            try:
                bits = int(name[3:])
            except ValueError as exc:
                raise SignatureError(f"unknown signature scheme {name!r}") from exc
            _SCHEMES[name] = RsaScheme(bits)
        elif name == NullScheme.name:
            _SCHEMES[name] = NullScheme()
        else:
            raise SignatureError(f"unknown signature scheme {name!r}")
    return _SCHEMES[name]
