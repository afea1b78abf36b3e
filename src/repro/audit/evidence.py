"""Evidence of a fault.

When an audit fails, the auditor packages the failing chunk of the log, the
authenticators that cover it and what anchors its start to the hash chain.
Any third party holding the reference image and the parties' public keys can
re-run the same deterministic checks and reach the same verdict, *without
having to trust either Alice or Bob* (Section 3.3, step 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.crypto.keys import KeyStore
from repro.crypto.merkle import MerkleTree
from repro.errors import EvidenceError, HashChainError, LogFormatError
from repro.log.authenticator import Authenticator
from repro.log.entries import EntryType, LogEntry
from repro.log.hashchain import ChainCheckpoint, extend_checkpoint_batch
from repro.log.segments import LogSegment
from repro.vm.image import VMImage
from repro.vm.snapshot import paginate, serialize_state

if TYPE_CHECKING:  # pragma: no cover - the kernel imports this module's users
    from repro.audit.kernel import BoundaryContext


@dataclass
class Evidence:
    """A self-contained, independently verifiable proof of a fault.

    ``segment`` is the chunk of the log that fails (Sections 3.5 and 4.5:
    evidence is segment + snapshot) and ``authenticators`` those that cover
    it.  A chunk that does not start the log is tied to its hash chain by
    ``anchor``: the log entries from the oldest RECV still in flight at the
    chunk's start through the SNAPSHOT entry that seals the preceding
    segment.  :meth:`verify` takes nothing about the start on the accuser's
    word — it checks that the anchor's chain ends in the segment's
    ``start_hash``, that ``initial_state`` hashes to the ``state_root`` that
    SNAPSHOT entry recorded, and derives what was in flight from the anchor.
    Evidence without an anchor must start at sequence 1 from
    :meth:`ChainCheckpoint.genesis`.

    Nothing anchors evidence that starts at an archive's GC retention
    checkpoint: the archive discards the sealing SNAPSHOT entry with the
    prefix, so :meth:`verify` raises :class:`EvidenceError` for a conviction
    in the first retained chunk.  Chunks after it are anchored as usual.
    """

    machine: str
    accuser: str
    reason: str
    segment: Optional[LogSegment]
    authenticators: List[Authenticator] = field(default_factory=list)
    reference_image_hash: bytes = b""
    #: state the replay starts from, when the segment does not start the log
    initial_state: Optional[dict] = None
    #: set when the machine refused to produce a log segment at all
    unanswered_challenge: bool = False
    #: log suffix ending where the segment starts (empty at the log's start)
    anchor: List[LogEntry] = field(default_factory=list)
    #: the accuser's claim that the log ends where the segment does, as the
    #: end of a downloaded log always was; the auditee refutes it by
    #: producing the continuation
    ends_log: bool = True

    def verify(self, keystore: KeyStore, reference_image: VMImage) -> bool:
        """Re-run the auditor's checks; returns ``True`` if the fault is confirmed.

        A third party calls this with its *own* keystore and its *own* copy of
        the reference image.  The evidence is confirmed when either

        * the machine never produced a log matching its authenticators
          (``unanswered_challenge`` with at least one valid authenticator), or
        * the supplied log segment fails the tamper check, or
        * the segment passes the tamper check but is malformed, or its
          deterministic replay against the reference image diverges.

        Raises :class:`EvidenceError` for evidence that proves nothing either
        way: another image, no valid authenticator on the segment, or a
        start that cannot be anchored.
        """
        if reference_image.image_hash() != self.reference_image_hash:
            raise EvidenceError(
                "evidence refers to a different reference image than the verifier's")

        segment = self.segment
        answered = not self.unanswered_challenge and segment is not None
        covered = range(0)
        if answered and segment.entries:
            covered = range(segment.first_sequence, segment.last_sequence + 1)
        # Only the machine's own authenticators on the segment can count, and
        # only valid ones: each signature is verified on its own, as the
        # audit does, and once — here or in the kernel, whichever needs it.
        issued = [a for a in self.authenticators
                  if (not answered or a.sequence in covered)
                  and a.machine == self.machine]
        none_valid = EvidenceError("evidence contains no valid authenticator")

        def any_valid() -> bool:
            return any(auth.verify(keystore) for auth in issued)

        if not issued or not keystore.has_identity(self.machine):
            raise none_valid
        if not answered:
            # The authenticators prove that log entries up to the covered
            # sequence numbers must exist; the machine's failure to produce
            # them is itself the fault (Section 4.5, "Verifying the log").
            if not any_valid():
                raise none_valid
            return True
        try:
            checkpoint, context = self._anchored_start()
        except EvidenceError:
            if not any_valid():
                raise none_valid from None
            raise

        # From here on it is the auditor's own procedure, on inputs tied to
        # the machine's chain, under this party's keys and image: a tampered
        # log, a syntactic violation or a replay divergence confirms the fault.
        from repro.audit.kernel import chunk_job, run_chunk
        from repro.audit.verdict import AuditPhase

        outcome = run_chunk(chunk_job(
            segment, issued, keystore, reference_image,
            checkpoint=checkpoint, initial_state=self.initial_state,
            context=context))
        if outcome.end_checkpoint is None:
            # the chain broke before the kernel checked a signature
            valid = any_valid()
        else:
            # the kernel checked each one: it counted the valid ones, or a
            # valid one convicted the chunk
            valid = outcome.authenticators_checked > 0 \
                or outcome.phase is AuditPhase.AUTHENTICATOR_CHECK
        if not valid:
            raise none_valid
        return not outcome.ok

    def _anchored_start(self) -> "tuple[ChainCheckpoint, BoundaryContext]":
        """Where the segment starts, proven: the chain state before its first
        entry and the context derived from the anchor."""
        from repro.audit.kernel import BoundaryContext

        segment = self.segment
        if not self.anchor:
            first = segment.entries[0].sequence if segment.entries else 1
            if self.initial_state is not None or first != 1 \
                    or segment.start_hash != ChainCheckpoint.genesis().chain_hash:
                raise EvidenceError(
                    "evidence without an anchor must start where the log starts")
            return ChainCheckpoint.genesis(), BoundaryContext(ends_log=self.ends_log)
        boundary = self.anchor[-1]
        try:
            end = extend_checkpoint_batch(
                ChainCheckpoint(self.anchor[0].sequence - 1,
                                self.anchor[0].previous_hash), self.anchor)
        except HashChainError as exc:
            raise EvidenceError(f"the anchor is not a chain: {exc}") from exc
        if end.chain_hash != segment.start_hash \
                or boundary.entry_type is not EntryType.SNAPSHOT:
            raise EvidenceError(
                "the anchor does not end in a snapshot at the segment's start")
        if self.initial_state is None or MerkleTree(paginate(serialize_state(
                self.initial_state))).root.hex() != boundary.content["state_root"]:
            raise EvidenceError(
                "the start state does not match the root the log recorded")
        context = BoundaryContext().after(LogSegment(
            self.machine, self.anchor, self.anchor[0].previous_hash))
        context.ends_log = self.ends_log
        try:
            known = {entry.content.get("message_id")
                     for entry in context.in_flight + segment.entries
                     if entry.entry_type is EntryType.RECV}
            orphan = next((entry for entry in segment.entries
                           if entry.entry_type is EntryType.MACLAYER
                           and entry.content.get("direction") == "in"
                           and entry.content.get("message_id") not in known),
                          None)
        except LogFormatError:  # unparseable content is the kernel's to report
            orphan = None
        if orphan is not None:
            # Only the whole log up to here shows that no such RECV exists.
            raise EvidenceError(
                f"entry {orphan.sequence} injects a packet whose RECV is in "
                f"neither segment nor anchor; only evidence from the log's "
                f"start can claim it was never received")
        return end, context
