"""Cryptographic substrate for accountable virtual machines.

The paper's AVMM relies on three cryptographic primitives (Section 4.1):

* a hash function that is pre-image, second-pre-image and collision resistant
  — provided by :mod:`repro.crypto.hashing` (SHA-256);
* certified keypairs used to sign messages — provided by :mod:`repro.crypto.rsa`
  (from-scratch RSA over libcrypto's exponentiation, :mod:`repro.crypto.modexp`)
  and :mod:`repro.crypto.keys` (certificates and a keystore acting as the CA);
* hash trees over VM state used to authenticate snapshots — provided by
  :mod:`repro.crypto.merkle`.

Signature *schemes* (RSA at any key size, and a null scheme used by the
``avmm-nosig`` configuration) are selected through
:mod:`repro.crypto.signatures` so experiments can swap them per configuration.
"""

from repro.crypto.hashing import (
    HASH_SIZE_BYTES,
    ZERO_HASH,
    hash_bytes,
    hash_concat,
    hash_hex,
    hash_object,
)
from repro.crypto.keys import Certificate, CertificateAuthority, KeyPair, KeyStore
from repro.crypto.merkle import MerkleTree
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.crypto.signatures import (
    NullScheme,
    RsaScheme,
    SignatureScheme,
    get_scheme,
)

__all__ = [
    "HASH_SIZE_BYTES",
    "ZERO_HASH",
    "hash_bytes",
    "hash_concat",
    "hash_hex",
    "hash_object",
    "Certificate",
    "CertificateAuthority",
    "KeyPair",
    "KeyStore",
    "MerkleTree",
    "RsaPrivateKey",
    "RsaPublicKey",
    "generate_keypair",
    "SignatureScheme",
    "RsaScheme",
    "NullScheme",
    "get_scheme",
]
