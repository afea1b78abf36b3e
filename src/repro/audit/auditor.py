"""The auditor.

:class:`Auditor` implements the full audit of Section 4.5: collect
authenticators, download the log (compressed), verify it against the
authenticators, run the syntactic check, then the semantic check.  Any failure
produces :class:`~repro.audit.evidence.Evidence`; an unresponsive machine is
*suspected* and the most recent authenticator becomes the evidence.

The three steps themselves are the audit kernel
(:func:`repro.audit.kernel.run_chunk`); every audit — a whole log, or a spot
check's range of it — is the audit engine's plan
(:class:`repro.audit.engine.AuditScheduler`), and :meth:`Auditor.evidence_for`
the one place evidence is built, from the chunk that failed.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.audit.evidence import Evidence
from repro.audit.kernel import ChunkJob
from repro.audit.verdict import AuditPhase, AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import KeyStore
from repro.log.authenticator import Authenticator
from repro.log.segments import LogSegment
from repro.vm.image import VMImage

if TYPE_CHECKING:  # pragma: no cover - avoid the auditor<->engine import cycle
    from repro.audit.engine import AuditScheduler


class Auditor:
    """An auditing party (Alice, or any player auditing another).

    ``engine`` is the :class:`~repro.audit.engine.AuditScheduler` its
    audits run on; without one, one inline worker.
    """

    def __init__(self, identity: str, keystore: KeyStore, reference_image: VMImage,
                 engine: Optional["AuditScheduler"] = None) -> None:
        self.identity = identity
        self.keystore = keystore
        self.reference_image = reference_image
        #: the audit engine backing this auditor (None: one inline worker)
        self.engine = engine
        #: per machine, each held authenticator under its
        #: ``(sequence, chain_hash, signature)``
        self.collected_authenticators: Dict[
            str, Dict[Tuple[int, bytes, bytes], Authenticator]] = {}

    # -- authenticator collection -------------------------------------------------

    def collect_authenticators(self, machine: str,
                               authenticators: Iterable[Authenticator]) -> int:
        """Store authenticators issued by ``machine`` (e.g. detached from
        messages); one the auditor already holds is not stored again."""
        held = self.collected_authenticators.setdefault(machine, {})
        added = 0
        for auth in authenticators:
            key = (auth.sequence, auth.chain_hash, auth.signature)
            if auth.machine == machine and key not in held:
                held[key] = auth
                added += 1
        return added

    def collect_from_peer(self, peer: AccountableVMM, machine: str) -> int:
        """Ask another party for the authenticators it holds about ``machine``.

        This is the multi-party step of Section 4.6: before auditing Bob,
        Alice downloads the authenticators Charlie has collected from Bob.
        """
        return self.collect_authenticators(machine, peer.authenticators_from(machine))

    def authenticators_for(self, machine: str) -> List[Authenticator]:
        return list(self.collected_authenticators.get(machine, {}).values())

    # -- audits ---------------------------------------------------------------------

    def audit(self, target: AccountableVMM, start: Optional[int] = None,
              until: Optional[int] = None) -> AuditResult:
        """Audit ``target``'s whole log, or its snapshot-delimited segments
        ``[start, until)`` (0 starts the log; a missing bound is the log's
        start or end): a spot check's k-chunk is ``start=i, until=i + k``.

        Every audit is the plan of the auditor's ``engine``
        (:class:`~repro.audit.engine.AuditScheduler`; by default one inline
        worker: a live log or a range is one chunk, an archive is audited one
        archived sealing snapshot at a time).  A range starts from the
        snapshot sealing the segment before it, verified; a bound outside
        the segments, or an empty range, raises
        :class:`~repro.errors.SegmentError`, and a segment claiming another
        machine's identity :class:`~repro.errors.AuditError`.
        """
        from repro.audit.engine import AuditAssignment, AuditScheduler
        report = (self.engine or AuditScheduler()).audit_fleet(
            [AuditAssignment(self, target, start, until)])
        return report.results[target.identity]

    def evidence_for(self, job: ChunkJob, failed: AuditResult,
                     following: Iterable[LogSegment] = ()) -> Evidence:
        """The failing chunk as evidence: the one place it is built, from the
        chunk's job and its ``failed`` result.

        It carries the chunk, authenticators that cover it (the job's), the
        verified boundary state and the anchor from the job's context, so it
        is the same at every worker count, costs a third party one chunk,
        and never needs the log re-read.  An authenticator commits the
        machine to every entry before it: once the chunk has passed the
        tamper check, the newest valid one on it is all a third party needs.
        A chunk no valid authenticator covers proves nothing to a third
        party; it is extended, through ``following`` (the segments after it,
        in log order), up to the next entry a valid one does cover.
        Candidates are verified newest first, on a conviction only, so a
        peer's junk cannot spoil the evidence.
        """
        machine = job.segment.machine
        entries, authenticators = job.segment.entries, job.authenticators
        if failed.phase is not AuditPhase.AUTHENTICATOR_CHECK:
            authenticators = self._newest_valid(authenticators)
        if not authenticators:
            mine: Dict[int, List[Authenticator]] = {}
            for auth in self.authenticators_for(machine):
                mine.setdefault(auth.sequence, []).append(auth)
            extended = list(entries)
            for entry in chain.from_iterable(more.entries for more in following):
                extended.append(entry)
                authenticators = self._newest_valid(mine.get(entry.sequence, ()))
                if authenticators:
                    entries = extended
                    break
        return Evidence(
            machine=machine, accuser=self.identity, reason=failed.reason,
            # starting where the auditor knows the chunk must start
            segment=LogSegment(machine, entries, job.checkpoint.chain_hash),
            authenticators=authenticators,
            reference_image_hash=self.reference_image.image_hash(),
            initial_state=job.initial_state, anchor=job.context.anchor,
            ends_log=job.context.ends_log)

    def _newest_valid(self, candidates: Iterable[Authenticator]) -> List[Authenticator]:
        """The newest of ``candidates`` whose own verification holds, alone,
        or nothing when none does."""
        for auth in sorted(candidates, key=lambda a: a.sequence, reverse=True):
            if auth.verify(self.keystore):
                return [auth]
        return []

    def suspect(self, machine: str, reason: str = "no response to audit challenge") -> AuditResult:
        """Report an unresponsive machine (Section 4.5: 'Alice will suspect Bob')."""
        authenticators = self.authenticators_for(machine)
        evidence = Evidence(machine=machine, accuser=self.identity, reason=reason,
                            segment=None, authenticators=authenticators,
                            reference_image_hash=self.reference_image.image_hash(),
                            unanswered_challenge=True)
        return AuditResult(machine=machine, auditor=self.identity,
                           verdict=Verdict.SUSPECTED,
                           phase=AuditPhase.AUTHENTICATOR_CHECK,
                           reason=reason, evidence=evidence)
