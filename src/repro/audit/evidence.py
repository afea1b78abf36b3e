"""Evidence of a fault.

When an audit fails, the auditor packages the log segment, the authenticators
and a description of the failure.  Any third party holding the reference image
and the parties' public keys can re-run the same deterministic checks and
reach the same verdict, *without having to trust either Alice or Bob*
(Section 3.3, step 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.crypto.keys import KeyStore
from repro.errors import EvidenceError
from repro.log.authenticator import Authenticator
from repro.log.segments import LogSegment
from repro.vm.image import VMImage

if TYPE_CHECKING:  # pragma: no cover - the kernel imports this module's users
    from repro.audit.kernel import BoundaryContext


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
    #: what was in flight at the segment's edges, when it is a chunk of a
    #: longer log: the context the accuser audited it with
    context: Optional["BoundaryContext"] = None

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
        # party's product test is unrandomised, so a batch screen decides
        # nothing for it (the kernel's re-runs over signatures that each
        # verified on their own).  From here on it is the auditor's own
        # procedure, on the same inputs, under this party's keys and image: a
        # tampered log, a syntactic violation or a replay divergence confirms
        # the fault.
        from repro.audit.kernel import chunk_job, run_chunk

        return not run_chunk(chunk_job(
            self.segment, valid_auths, keystore, reference_image,
            initial_state=self.initial_state, context=self.context)).ok
