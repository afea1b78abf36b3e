"""The auditor.

:class:`Auditor` implements the full audit of Section 4.5: collect
authenticators, download the log (compressed), verify it against the
authenticators, run the syntactic check, then the semantic check.  Any failure
produces :class:`~repro.audit.evidence.Evidence`; an unresponsive machine is
*suspected* and the most recent authenticator becomes the evidence.

The three steps themselves are the audit kernel
(:func:`repro.audit.kernel.run_chunk`); :meth:`Auditor.audit_segment` is the
serial front-end — the kernel over the whole segment as one chunk — and
:meth:`Auditor.evidence_for` the one place evidence is built, on every
front-end, from the chunk that failed.  Whole-machine audits of an archive,
or by an auditor with ``workers > 1`` (or an ``engine``), go to the audit
engine (:class:`repro.audit.engine.AuditScheduler`) instead; a live log
audited at ``workers=1`` (the default) takes the serial path below.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.audit.evidence import Evidence
from repro.audit.kernel import (BoundaryContext, ChunkJob, chunk_job,
                                replay_start, run_chunk)
from repro.audit.verdict import AuditPhase, AuditResult, Verdict
from repro.avmm.monitor import AccountableVMM
from repro.crypto.keys import KeyStore
from repro.errors import AuditError
from repro.log.authenticator import Authenticator
from repro.log.segments import LogSegment
from repro.metrics.perfmodel import CostParameters
from repro.vm.image import VMImage

if TYPE_CHECKING:  # pragma: no cover - avoid the auditor<->engine import cycle
    from repro.audit.engine import AuditScheduler


class Auditor:
    """An auditing party (Alice, or any player auditing another).

    ``workers`` selects how many audit workers full-machine audits may use;
    alternatively an explicit :class:`~repro.audit.engine.AuditScheduler`
    can be supplied via ``engine`` (it wins over ``workers``).
    """

    def __init__(self, identity: str, keystore: KeyStore, reference_image: VMImage,
                 cost_params: Optional[CostParameters] = None,
                 workers: int = 1,
                 engine: Optional["AuditScheduler"] = None) -> None:
        self.identity = identity
        self.keystore = keystore
        self.reference_image = reference_image
        self.cost_params = cost_params or CostParameters()
        self.workers = workers
        self._engine = engine
        #: per machine, each held authenticator under its
        #: ``(sequence, chain_hash, signature)``
        self.collected_authenticators: Dict[
            str, Dict[Tuple[int, bytes, bytes], Authenticator]] = {}

    @property
    def engine(self) -> Optional["AuditScheduler"]:
        """The audit engine backing this auditor (``None`` on the serial path)."""
        if self._engine is None and self.workers > 1:
            from repro.audit.engine import AuditScheduler
            self._engine = AuditScheduler(workers=self.workers)
        return self._engine

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

    def audit(self, target: AccountableVMM,
              segment: Optional[LogSegment] = None,
              initial_state: Optional[Dict[str, Any]] = None) -> AuditResult:
        """Run a full audit of ``target`` (or of a specific segment of its log).

        A whole-machine audit goes through the audit engine
        (:class:`~repro.audit.engine.AuditScheduler`) when the auditor has an
        engine or the target is archive-backed (``supports_streaming``) — at
        one inline worker, an archive is audited one snapshot-sealed chunk
        at a time, in O(chunk) memory whether it passes or is convicted.  A
        live log without an engine, and an explicit segment, take the serial
        path.
        """
        if segment is None and initial_state is None:
            if self.engine is None \
                    and not getattr(target, "supports_streaming", False):
                return self.audit_whole_log(target)
            from repro.audit.engine import AuditScheduler
            return (self.engine or AuditScheduler()).audit_machine(self, target)
        if segment is None:
            segment = target.get_log_segment()
        return self.audit_segment(target.identity, segment,
                                  initial_state=initial_state)

    def audit_whole_log(self, target: AccountableVMM) -> AuditResult:
        """The serial front-end over ``target``'s whole log, materialized:
        one chunk, replayed from the reference image or, for a GC-truncated
        archive, from its boundary snapshot.  Also where the engine hands a
        log that cannot be chunked."""
        state, snapshot_bytes = replay_start(target)
        return self.audit_segment(target.identity, target.get_log_segment(),
                                  initial_state=state,
                                  snapshot_bytes=snapshot_bytes)

    def audit_segment(self, machine: str, segment: LogSegment,
                      initial_state: Optional[Dict[str, Any]] = None,
                      snapshot_bytes: int = 0,
                      context: Optional[BoundaryContext] = None,
                      following: Iterable[LogSegment] = ()) -> AuditResult:
        """Audit a log segment that has already been downloaded.

        ``context`` is what was in flight at the segment's edges when it is
        a chunk of a longer log (a spot check), and ``following`` the
        segments after it, should its evidence need them
        (:meth:`evidence_for`).

        This is the serial front-end (plain audits of a live log, explicit
        segments, spot-check chunks, a log that cannot be chunked): the
        kernel over the whole segment as one chunk.
        """
        if segment.machine != machine:
            # A segment claiming another identity would sidestep every
            # authenticator check (none would apply) and could replay
            # cleanly; refusing it is an operational error, not a verdict.
            raise AuditError(
                f"segment claims to be from {segment.machine!r}, "
                f"but the audit target is {machine!r}")
        job = chunk_job(
            segment, self.authenticators_for(machine), self.keystore,
            self.reference_image, initial_state=initial_state,
            snapshot_bytes=snapshot_bytes, cost_params=self.cost_params,
            context=context)
        outcome = run_chunk(job)
        result = outcome.as_result(self.identity)
        # the serial path reports no signature figures: the paper folds that
        # work into the syntactic check
        result.cost = replace(outcome.cost, signatures_verified=0)
        if not outcome.ok:
            result.evidence = self.evidence_for(job, result, following)
        return result

    def evidence_for(self, job: ChunkJob, failed: AuditResult,
                     following: Iterable[LogSegment] = ()) -> Evidence:
        """The failing chunk as evidence: the one place it is built, on every
        front-end, from the chunk's job and its ``failed`` result.

        It carries the chunk, authenticators that cover it (the job's), the
        verified boundary state and the anchor from the job's context, so it
        is the same at every worker count, costs a third party one chunk,
        and never needs the log re-read.  An authenticator commits the
        machine to every entry before it: once the chunk has passed the
        tamper check, the last one on it is all a third party needs.  A
        chunk no authenticator covers proves nothing to a third party; it is
        extended, through ``following`` (the segments after it, in log
        order), up to the next entry one does cover.
        """
        machine = job.segment.machine
        entries, authenticators = job.segment.entries, job.authenticators
        if authenticators and failed.phase is not AuditPhase.AUTHENTICATOR_CHECK:
            authenticators = [max(authenticators, key=lambda a: a.sequence)]
        elif not authenticators:
            mine = self.authenticators_for(machine)
            signed = {auth.sequence for auth in mine}
            extended = list(entries)
            for more in following:
                cut = next((index for index, entry in enumerate(more.entries)
                            if entry.sequence in signed), None)
                extended += more.entries[:None if cut is None else cut + 1]
                if cut is not None:
                    entries = extended
                    authenticators = [auth for auth in mine
                                      if auth.sequence == entries[-1].sequence]
                    break
        return Evidence(
            machine=machine, accuser=self.identity, reason=failed.reason,
            # starting where the auditor knows the chunk must start
            segment=LogSegment(machine, entries, job.checkpoint.chain_hash),
            authenticators=authenticators,
            reference_image_hash=self.reference_image.image_hash(),
            initial_state=job.initial_state, anchor=job.context.anchor,
            ends_log=job.context.ends_log)

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
