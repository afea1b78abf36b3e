"""Multi-party protocol (Section 4.6).

Beyond the two-party case, Alice gathers the authenticators other users have
received from Bob before auditing him
(:meth:`repro.audit.auditor.Auditor.collect_from_peer`); pooled, they convict
a machine that forked its log without its cooperation
(:func:`find_equivocation`).  Once Alice has evidence, she sends it to the
other interested parties, each of whom verifies it independently
(:func:`distribute_evidence`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.audit.evidence import Evidence
from repro.crypto.keys import KeyStore
from repro.errors import LogFormatError
from repro.log.authenticator import Authenticator
from repro.vm.image import VMImage

@dataclass(frozen=True)
class EquivocationProof:
    """Two signed commitments by one machine to different log prefixes.

    If a machine sends authenticator ``(s, h)`` to one party and ``(s, h')``
    with ``h != h'`` to another, the two authenticators *alone* prove that it
    forked its log: both carry valid signatures under the machine's certified
    key, and a correct machine signs exactly one chain hash per sequence
    number.  No log download or replay is needed to verify the proof.
    """

    machine: str
    sequence: int
    first: Authenticator
    second: Authenticator

    def verify(self, keystore: KeyStore) -> bool:
        """Re-check the proof from the signed authenticators alone."""
        return (
            self.first.machine == self.machine
            and self.second.machine == self.machine
            and self.first.sequence == self.sequence
            and self.second.sequence == self.sequence
            and self.first.chain_hash != self.second.chain_hash
            and self.first.verify(keystore)
            and self.second.verify(keystore)
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready wire form, reusing the authenticator wire encoding.

        Proofs travel between mutually-distrusting parties (the auditor
        that found one → third-party verifiers), so the wire form carries
        everything :meth:`verify` needs — the receiver re-checks the proof
        against its *own* keystore and never trusts the sender.
        """
        return {
            "kind": "equivocation_proof",
            "machine": self.machine,
            "sequence": self.sequence,
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EquivocationProof":
        """Rebuild a proof from its wire form.

        Raises :class:`~repro.errors.LogFormatError` on structurally invalid
        input; a *well-formed but false* proof decodes fine and is rejected
        by :meth:`verify` instead.
        """
        try:
            if payload.get("kind", "equivocation_proof") != "equivocation_proof":
                raise ValueError(f"unexpected kind {payload.get('kind')!r}")
            return cls(
                machine=str(payload["machine"]),
                sequence=int(payload["sequence"]),
                first=Authenticator.from_dict(payload["first"]),
                second=Authenticator.from_dict(payload["second"]),
            )
        except LogFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise LogFormatError(
                f"malformed equivocation proof: {exc}") from exc


def find_equivocation(authenticators: Iterable[Authenticator],
                      keystore: KeyStore) -> Optional[EquivocationProof]:
    """Scan pooled authenticators for conflicting commitments.

    This is the multi-party cross-check of Section 4.6: before auditing Bob,
    Alice pools the authenticators every party has collected from him; two
    validly signed authenticators for the same sequence number with different
    chain hashes convict Bob without his cooperation.  Returns the first
    conflict found (deterministic in input order), or ``None``.
    """
    seen: Dict[tuple, List[Authenticator]] = {}
    for auth in authenticators:
        key = (auth.machine, auth.sequence)
        bucket = seen.setdefault(key, [])
        for previous in bucket:
            # Compare against every retained candidate, not just the first:
            # a machine could ship one garbage-signed authenticator per
            # sequence early on to occupy the slot and mask a later genuine
            # conflict.  Signatures are only checked on conflicting pairs,
            # so the scan stays cheap on honest pools.
            if previous.chain_hash != auth.chain_hash \
                    and previous.verify(keystore) and auth.verify(keystore):
                return EquivocationProof(machine=auth.machine,
                                         sequence=auth.sequence,
                                         first=previous, second=auth)
        bucket.append(auth)
    return None


def distribute_evidence(evidence: Evidence, verifiers: Iterable[tuple[str, KeyStore]],
                        reference_image: VMImage) -> Dict[str, bool]:
    """Send evidence to other parties; each verifies it independently.

    ``verifiers`` is an iterable of ``(identity, keystore)`` pairs; the return
    value maps each identity to whether it confirmed the fault.
    """
    verdicts: Dict[str, bool] = {}
    for identity, keystore in verifiers:
        verdicts[identity] = evidence.verify(keystore, reference_image)
    return verdicts
