"""Key pairs, certificates and the keystore.

Assumption 3 of the paper (Section 4.1): *each party has a certified keypair,
which can be used to sign messages; neither signatures nor certificates can be
forged.*  The :class:`CertificateAuthority` plays the role of the
administrator that signs each machine's key, and the :class:`KeyStore` is the
per-party view of everyone's certified public keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.crypto import hashing
from repro.crypto.signatures import SignatureScheme, SigningKey, VerifyKey, get_scheme
from repro.errors import CertificateError


@dataclass(frozen=True)
class Certificate:
    """Binds an identity to a verification key, signed by the CA."""

    identity: str
    scheme_name: str
    key_fingerprint: str
    ca_identity: str
    ca_signature: bytes
    verify_key: VerifyKey

    def signed_payload(self) -> bytes:
        """The byte string the CA signs."""
        return hashing.hash_concat(
            self.identity.encode("utf-8"),
            self.scheme_name.encode("utf-8"),
            self.key_fingerprint.encode("utf-8"),
            self.ca_identity.encode("utf-8"),
        )


@dataclass
class KeyPair:
    """A party's signing key together with its certificate."""

    identity: str
    signing_key: SigningKey
    certificate: Certificate

    def sign(self, message: bytes) -> bytes:
        """Sign ``message`` with the party's private key."""
        return self.signing_key.sign(message)

    @property
    def verify_key(self) -> VerifyKey:
        return self.signing_key.verify_key


class CertificateAuthority:
    """Issues certified key pairs for parties.

    The CA uses the same signature scheme as the parties it certifies.  Its
    own verification key is distributed out of band (every :class:`KeyStore`
    is constructed with a reference to the CA).
    """

    def __init__(self, scheme: SignatureScheme | str = "rsa768",
                 identity: str = "ca", seed: int = 0) -> None:
        self.scheme = get_scheme(scheme) if isinstance(scheme, str) else scheme
        self.identity = identity
        self._ca_key = self.scheme.generate(identity, seed=_derive_seed(seed, identity))
        self._seed = seed
        self._issued: Dict[str, KeyPair] = {}

    @property
    def verify_key(self) -> VerifyKey:
        """The CA's public verification key."""
        return self._ca_key.verify_key

    def issue(self, identity: str) -> KeyPair:
        """Generate and certify a key pair for ``identity``.

        Issuing twice for the same identity returns the same key pair, which
        mirrors the real-world setup where each machine has one certified key.
        """
        if identity in self._issued:
            return self._issued[identity]
        signing_key = self.scheme.generate(identity,
                                           seed=_derive_seed(self._seed, identity))
        fingerprint = signing_key.verify_key.fingerprint()
        payload = hashing.hash_concat(
            identity.encode("utf-8"),
            self.scheme.name.encode("utf-8"),
            fingerprint.encode("utf-8"),
            self.identity.encode("utf-8"),
        )
        certificate = Certificate(
            identity=identity,
            scheme_name=self.scheme.name,
            key_fingerprint=fingerprint,
            ca_identity=self.identity,
            ca_signature=self._ca_key.sign(payload),
            verify_key=signing_key.verify_key,
        )
        pair = KeyPair(identity=identity, signing_key=signing_key,
                       certificate=certificate)
        self._issued[identity] = pair
        return pair

    def verify_certificate(self, certificate: Certificate) -> bool:
        """Check that ``certificate`` was signed by this CA."""
        if certificate.ca_identity != self.identity:
            return False
        if certificate.key_fingerprint != certificate.verify_key.fingerprint():
            return False
        return self._ca_key.verify_key.verify(certificate.signed_payload(),
                                               certificate.ca_signature)


@dataclass
class KeyStore:
    """A party's view of certified public keys.

    Parties register the certificates they learn about (their own and their
    peers'), and look up verification keys by identity when checking message
    signatures, authenticators and evidence.
    """

    ca: CertificateAuthority
    _certificates: Dict[str, Certificate] = field(default_factory=dict)

    def add_certificate(self, certificate: Certificate) -> None:
        """Register a certificate after verifying the CA signature."""
        if not self.ca.verify_certificate(certificate):
            raise CertificateError(
                f"certificate for {certificate.identity!r} failed CA verification")
        existing = self._certificates.get(certificate.identity)
        if existing is not None and existing.key_fingerprint != certificate.key_fingerprint:
            raise CertificateError(
                f"conflicting certificate for {certificate.identity!r}")
        self._certificates[certificate.identity] = certificate

    def verify_key_for(self, identity: str) -> VerifyKey:
        """Return the verification key for ``identity``."""
        certificate = self._certificates.get(identity)
        if certificate is None:
            raise CertificateError(f"no certificate registered for {identity!r}")
        return certificate.verify_key

    def has_identity(self, identity: str) -> bool:
        return identity in self._certificates

    def verify(self, identity: str, message: bytes, signature: bytes) -> bool:
        """Verify a signature by ``identity`` over ``message``."""
        try:
            key = self.verify_key_for(identity)
        except CertificateError:
            return False
        return key.verify(message, signature)

    def identities(self) -> list[str]:
        """Identities with a registered certificate, sorted."""
        return sorted(self._certificates)

    def static_view(self) -> "StaticKeyView":
        """A picklable, read-only snapshot of the registered verification keys.

        The parallel audit engine ships one of these to its worker processes:
        it satisfies the verifier interface the checkers use
        (:meth:`has_identity` / :meth:`verify`) without dragging along the
        certificate authority's signing key.
        """
        return StaticKeyView(keys={identity: certificate.verify_key
                                   for identity, certificate in self._certificates.items()})


@dataclass(frozen=True)
class StaticKeyView:
    """An immutable identity -> verification-key mapping.

    Provides the subset of the :class:`KeyStore` interface that signature
    checking needs.  Because it holds only public material and plain
    dataclasses, it can be pickled into audit worker processes.
    """

    keys: Dict[str, VerifyKey] = field(default_factory=dict)

    def has_identity(self, identity: str) -> bool:
        return identity in self.keys

    def verify(self, identity: str, message: bytes, signature: bytes) -> bool:
        key = self.keys.get(identity)
        if key is None:
            return False
        return key.verify(message, signature)

    def identities(self) -> list[str]:
        return sorted(self.keys)


def build_trust(identities: Sequence[str], scheme: str = "rsa768",
                seed: int = 0) -> Tuple[CertificateAuthority, Dict[str, KeyPair], KeyStore]:
    """Create a CA, issue a certified key pair per identity, build a keystore."""
    ca = CertificateAuthority(scheme=scheme if scheme != "nosig" else "rsa768", seed=seed)
    keypairs = {identity: ca.issue(identity) for identity in identities}
    keystore = KeyStore(ca)
    for keypair in keypairs.values():
        keystore.add_certificate(keypair.certificate)
    return ca, keypairs, keystore


def _derive_seed(base: int, identity: str) -> int:
    digest = hashing.hash_concat(hashing.encode_int(base), identity.encode("utf-8"))
    return int.from_bytes(digest[:8], "big")
