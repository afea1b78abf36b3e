"""Evidence of a fault.

When an audit fails, the auditor packages the log segment, the authenticators
and a description of the failure.  Any third party holding the reference image
and the parties' public keys can re-run the same deterministic checks and
reach the same verdict, *without having to trust either Alice or Bob*
(Section 3.3, step 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.crypto.keys import KeyStore
from repro.errors import AuthenticatorMismatchError, EvidenceError, HashChainError
from repro.log.authenticator import Authenticator
from repro.log.segments import LogSegment
from repro.vm.image import VMImage


@dataclass
class Evidence:
    """A self-contained, independently verifiable proof of a fault."""

    machine: str
    accuser: str
    reason: str
    segment: Optional[LogSegment]
    authenticators: List[Authenticator] = field(default_factory=list)
    reference_image_hash: bytes = b""
    #: initial state for replay, when the segment does not start at the beginning
    initial_state: Optional[dict] = None
    #: set when the machine refused to produce a log segment at all
    unanswered_challenge: bool = False

    def verify(self, keystore: KeyStore, reference_image: VMImage) -> bool:
        """Re-run the auditor's checks; returns ``True`` if the fault is confirmed.

        A third party calls this with its *own* keystore and its *own* copy of
        the reference image.  The evidence is confirmed when either

        * the machine never produced a log matching its authenticators
          (``unanswered_challenge`` with at least one valid authenticator), or
        * the supplied log segment fails the tamper check, or
        * the segment passes the tamper check but deterministic replay against
          the reference image diverges.
        """
        if reference_image.image_hash() != self.reference_image_hash:
            raise EvidenceError(
                "evidence refers to a different reference image than the verifier's")

        valid_auths = [a for a in self.authenticators if a.verify(keystore)]
        if not valid_auths:
            raise EvidenceError("evidence contains no valid authenticator")

        if self.unanswered_challenge or self.segment is None:
            # The authenticators prove that log entries up to the covered
            # sequence numbers must exist; the machine's failure to produce
            # them is itself the fault (Section 4.5, "Verifying the log").
            return True

        # One signature verification each, above, and individually: a third
        # party gets no batch screen (its product test is unrandomised).
        try:
            self.segment.match_authenticators(valid_auths)
        except (HashChainError, AuthenticatorMismatchError):
            return True  # tampered log: fault confirmed

        # The log is genuine; the fault must show up as a replay divergence or
        # a syntactic violation.
        from repro.audit.semantic import SemanticChecker
        from repro.audit.syntactic import SyntacticChecker

        syntactic = SyntacticChecker(keystore).check(self.segment)
        if not syntactic.ok:
            return True
        report = SemanticChecker(reference_image).check(
            self.segment, initial_state=self.initial_state)
        return report.diverged
